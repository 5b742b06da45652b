//go:build !race

package pfi

const raceEnabled = false
