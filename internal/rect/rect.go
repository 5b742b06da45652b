// Package rect provides the geometry of PISCES 2 "windows" (paper, Section 8).
// A window is a generalized pointer to a rectangular subregion of an array
// owned by another task.  This package defines the rectangular-subregion
// descriptor itself — bounds checking, shrinking, splitting into row bands
// for parallel data partitioning, and row-major linearisation —
// independent of the tasking machinery, so the arithmetic can be
// property-tested in isolation.
//
// Coordinates follow the Fortran convention used by Pisces Fortran: array
// dimensions are 1-based and bounds are inclusive.
package rect

import "fmt"

// Rect describes a rectangular subregion of a 2-D array with inclusive,
// 1-based bounds.  A 1-D array is represented as a single row (Row1 = Row2 = 1).
type Rect struct {
	Row1, Row2 int // first and last row, inclusive
	Col1, Col2 int // first and last column, inclusive
}

// New returns the rectangle [r1..r2] x [c1..c2].  It does not validate; call
// Valid or use Shrink for checked derivation.
func New(r1, r2, c1, c2 int) Rect { return Rect{Row1: r1, Row2: r2, Col1: c1, Col2: c2} }

// Whole returns the rectangle covering an entire rows x cols array.
func Whole(rows, cols int) Rect { return Rect{Row1: 1, Row2: rows, Col1: 1, Col2: cols} }

// Valid reports whether the rectangle is non-empty with positive bounds.
func (r Rect) Valid() bool {
	return r.Row1 >= 1 && r.Col1 >= 1 && r.Row2 >= r.Row1 && r.Col2 >= r.Col1
}

// Rows returns the number of rows covered.
func (r Rect) Rows() int {
	if !r.Valid() {
		return 0
	}
	return r.Row2 - r.Row1 + 1
}

// Cols returns the number of columns covered.
func (r Rect) Cols() int {
	if !r.Valid() {
		return 0
	}
	return r.Col2 - r.Col1 + 1
}

// Size returns the number of elements covered.
func (r Rect) Size() int { return r.Rows() * r.Cols() }

// String renders the rectangle in the form "(r1:r2, c1:c2)".
func (r Rect) String() string {
	return fmt.Sprintf("(%d:%d, %d:%d)", r.Row1, r.Row2, r.Col1, r.Col2)
}

// Contains reports whether other lies entirely inside r.
func (r Rect) Contains(other Rect) bool {
	return r.Valid() && other.Valid() &&
		other.Row1 >= r.Row1 && other.Row2 <= r.Row2 &&
		other.Col1 >= r.Col1 && other.Col2 <= r.Col2
}

// Shrink derives a sub-window: the result must lie entirely within r
// ("Another task may also 'shrink' the window to point to a smaller
// subarray", Section 8).  Growing a window is an error.
func (r Rect) Shrink(to Rect) (Rect, error) {
	if !to.Valid() {
		return Rect{}, fmt.Errorf("rect: shrink target %v is empty or invalid", to)
	}
	if !r.Contains(to) {
		return Rect{}, fmt.Errorf("rect: %v does not contain shrink target %v", r, to)
	}
	return to, nil
}

// RowBands splits r into n horizontal bands of near-equal height, in order.
// Bands beyond the number of rows are empty and omitted, so the number of
// returned bands is min(n, Rows).  This is the top-level partitioning pattern
// of Section 8: "The owner of the data may do the top-level partitioning by
// creating windows on appropriate partitions."
func (r Rect) RowBands(n int) ([]Rect, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rect: band count must be positive, got %d", n)
	}
	if !r.Valid() {
		return nil, fmt.Errorf("rect: cannot split invalid rectangle %v", r)
	}
	rows := r.Rows()
	if n > rows {
		n = rows
	}
	base := rows / n
	rem := rows % n
	var out []Rect
	row := r.Row1
	for i := 0; i < n; i++ {
		h := base
		if i < rem {
			h++
		}
		out = append(out, Rect{Row1: row, Row2: row + h - 1, Col1: r.Col1, Col2: r.Col2})
		row += h
	}
	return out, nil
}

// Offsets returns the row-major linear offsets (0-based) into a rows x cols
// array of every element of r, in row-major order.  It is used to copy the
// data visible in a window into and out of the owner's array.
func (r Rect) Offsets(rows, cols int) ([]int, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("rect: invalid rectangle %v", r)
	}
	if r.Row2 > rows || r.Col2 > cols {
		return nil, fmt.Errorf("rect: %v exceeds array bounds %dx%d", r, rows, cols)
	}
	out := make([]int, 0, r.Size())
	for row := r.Row1; row <= r.Row2; row++ {
		base := (row-1)*cols + (r.Col1 - 1)
		for c := 0; c < r.Cols(); c++ {
			out = append(out, base+c)
		}
	}
	return out, nil
}
