// Package loops implements the parallel loop scheduling disciplines of the
// PISCES 2 force construct (paper, Section 7):
//
//   - PRESCHED DO loops: "in a force of N members, each member should take
//     1/N of the loop iterations.  The Ith force member takes iterations
//     I, N+I, 2*N+I, etc."  (cyclic / interleaved prescheduling)
//
//   - SELFSCHED DO loops: "each force member takes the 'next' iteration when
//     it arrives at the loop ... until all iterations are complete."
//     (dynamic self-scheduling off a shared counter)
//
//   - PARSEG parallel segments: "The Ith force member executes the Ith, N+I,
//     2*N+I, etc. statement sequences, just as for a PRESCHED DO loop."
//
// The partitioning arithmetic is kept here as pure functions so it can be
// property-tested independently of the run-time system; internal/core wires
// these functions to real force members and to the shared-memory counter used
// by self-scheduling.
package loops

import "fmt"

// Iterations expands a Fortran-style DO loop control (lo, hi, step) into the
// ordered list of iteration index values.  A zero step is invalid.  Like
// Fortran DO, the loop body executes zero times when the bounds are crossed.
func Iterations(lo, hi, step int) ([]int, error) {
	var out []int
	if err := ForEach(lo, hi, step, func(i int) bool {
		out = append(out, i)
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach calls body for each index value of the (lo, hi, step) DO loop in
// order, without materialising the iteration list; body returning false stops
// the loop early.  It is the allocation-free form of Iterations used by the
// interpreter's sequential DO loops.
func ForEach(lo, hi, step int, body func(i int) bool) error {
	if step == 0 {
		return fmt.Errorf("loops: DO loop step must be nonzero")
	}
	if step > 0 {
		for i := lo; i <= hi; i += step {
			if !body(i) {
				return nil
			}
		}
	} else {
		for i := lo; i >= hi; i += step {
			if !body(i) {
				return nil
			}
		}
	}
	return nil
}

// Count returns the number of iterations of a (lo, hi, step) DO loop without
// materialising them.
func Count(lo, hi, step int) (int, error) {
	if step == 0 {
		return 0, fmt.Errorf("loops: DO loop step must be nonzero")
	}
	if step > 0 {
		if lo > hi {
			return 0, nil
		}
		return (hi-lo)/step + 1, nil
	}
	if lo < hi {
		return 0, nil
	}
	return (lo-hi)/(-step) + 1, nil
}

// Presched returns the iteration index values assigned to force member
// `member` (0-based) out of `members` total, under PRESCHED interleaving:
// member i takes positions i, i+N, i+2N, ... of the iteration sequence.
func Presched(lo, hi, step, member, members int) ([]int, error) {
	if members <= 0 {
		return nil, fmt.Errorf("loops: force must have at least one member, got %d", members)
	}
	if member < 0 || member >= members {
		return nil, fmt.Errorf("loops: member %d out of range [0,%d)", member, members)
	}
	all, err := Iterations(lo, hi, step)
	if err != nil {
		return nil, err
	}
	var out []int
	for pos := member; pos < len(all); pos += members {
		out = append(out, all[pos])
	}
	return out, nil
}

// Counter is the shared iteration counter used by SELFSCHED loops.  In the
// real system this counter lives in shared memory and is updated under a
// lock; internal/core provides that.
type Counter interface {
	// Next returns the next unclaimed position (0-based) and true, or false
	// when all positions have been handed out.
	Next() (int, bool)
}

// Selfsched drains iterations from the counter, translating claimed positions
// into iteration index values of the (lo, hi, step) loop, and calls body for
// each.  It returns the number of iterations this member executed.
func Selfsched(lo, hi, step int, ctr Counter, body func(i int)) (int, error) {
	n, err := Count(lo, hi, step)
	if err != nil {
		return 0, err
	}
	done := 0
	for {
		pos, ok := ctr.Next()
		if !ok {
			return done, nil
		}
		if pos >= n {
			return done, nil
		}
		body(lo + pos*step)
		done++
	}
}

// Segments returns the indices (0-based) of the PARSEG statement sequences
// executed by force member `member` of `members`, out of total segments.
func Segments(total, member, members int) ([]int, error) {
	if members <= 0 {
		return nil, fmt.Errorf("loops: force must have at least one member, got %d", members)
	}
	if member < 0 || member >= members {
		return nil, fmt.Errorf("loops: member %d out of range [0,%d)", member, members)
	}
	if total < 0 {
		return nil, fmt.Errorf("loops: negative segment count %d", total)
	}
	var out []int
	for s := member; s < total; s += members {
		out = append(out, s)
	}
	return out, nil
}

// ListSchedule simulates self-scheduling in virtual time: iterations are
// claimed in index order, each by the member whose accumulated cost is
// currently smallest (the member that would arrive at the loop first).  It
// returns the per-member iteration positions and the resulting makespan (the
// largest accumulated cost).  claimCost models the per-claim overhead of the
// shared iteration counter.
//
// The force run-time's live SELFSCHED loop makes the same decisions in real
// time on real processors; ListSchedule is used by the performance
// experiments so that dynamic scheduling outcomes are measured in simulated
// time, independent of how many host CPUs the simulator itself happens to
// run on.
func ListSchedule(costs []int64, members int, claimCost int64) ([][]int, int64, error) {
	if members <= 0 {
		return nil, 0, fmt.Errorf("loops: members must be positive, got %d", members)
	}
	assign := make([][]int, members)
	loads := make([]int64, members)
	for i, c := range costs {
		// Pick the least-loaded member; ties go to the lowest index, which is
		// the member that reached the counter first.
		best := 0
		for m := 1; m < members; m++ {
			if loads[m] < loads[best] {
				best = m
			}
		}
		assign[best] = append(assign[best], i)
		if c < 0 {
			c = 0
		}
		loads[best] += c + claimCost
	}
	makespan := int64(0)
	for _, l := range loads {
		if l > makespan {
			makespan = l
		}
	}
	return assign, makespan, nil
}
