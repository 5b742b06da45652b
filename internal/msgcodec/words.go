package msgcodec

import (
	"encoding/binary"
	"unsafe"
)

// An INTEGER or REAL array's payload is its elements as 8-byte little-endian
// words, which on a little-endian host is the array's memory image: encoding
// the array is one append of that image and decoding it one copy into the
// array refill returned.  A big-endian host moves the same bytes a word at a
// time (appendWordsPortable, putWordsPortable), and the tests hold both ways
// to the same bytes on every host.

// hostLittleEndian reports whether this host's memory image of a word is its
// little-endian wire form.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// The package views memory through unsafe in three ways, each over one
// allocation and nothing else: an array's words as bytes (wordBytes), an
// INTEGER array's words as the REALs an Arg holds them as and back (realsOf,
// intsOf), and a CHARACTER's bytes as the string they are (Str, Character).
// A payload is never viewed as words, so one walked in place out of a read
// buffer may sit at any offset.

// wordBytes is the memory image of an array: its 8*len(v) bytes, in the
// host's byte order.
func wordBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// realsOf is an INTEGER array's storage as an Arg's RealArray holds it: the
// same words, length and capacity, nil for nil.
func realsOf(v []int64) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(v))), cap(v))[:len(v)]
}

// intsOf is realsOf the way back.
func intsOf(v []float64) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(v))), cap(v))[:len(v)]
}

// appendWords appends the array whose memory image is img as little-endian
// words.
func appendWords(dst, img []byte) []byte {
	if hostLittleEndian {
		return append(dst, img...)
	}
	return appendWordsPortable(dst, img)
}

// putWords writes the little-endian words of payload into img, the memory
// image of an array of len(payload)/8 elements.
func putWords(img, payload []byte) {
	if hostLittleEndian {
		copy(img, payload)
		return
	}
	putWordsPortable(img, payload)
}

// appendWordsPortable is appendWords one word at a time, right on any host.
func appendWordsPortable(dst, img []byte) []byte {
	for i := 0; i+8 <= len(img); i += 8 {
		dst = binary.LittleEndian.AppendUint64(dst, binary.NativeEndian.Uint64(img[i:]))
	}
	return dst
}

// putWordsPortable is putWords one word at a time, right on any host.
func putWordsPortable(img, payload []byte) {
	for i := 0; i+8 <= len(payload); i += 8 {
		binary.NativeEndian.PutUint64(img[i:], binary.LittleEndian.Uint64(payload[i:]))
	}
}
