package rect

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicGeometry(t *testing.T) {
	r := New(2, 5, 3, 10)
	if !r.Valid() {
		t.Fatal("rectangle should be valid")
	}
	if r.Rows() != 4 || r.Cols() != 8 || r.Size() != 32 {
		t.Fatalf("rows/cols/size = %d/%d/%d", r.Rows(), r.Cols(), r.Size())
	}
	if r.String() != "(2:5, 3:10)" {
		t.Fatalf("String = %q", r.String())
	}
	w := Whole(100, 50)
	if w.Rows() != 100 || w.Cols() != 50 {
		t.Fatalf("Whole = %v", w)
	}
	if !w.Contains(r) || r.Contains(w) {
		t.Fatal("containment wrong")
	}
}

func TestInvalidRects(t *testing.T) {
	bad := []Rect{
		New(0, 5, 1, 5),   // zero-based row
		New(1, 5, 0, 5),   // zero-based col
		New(5, 4, 1, 5),   // rows crossed
		New(1, 5, 9, 8),   // cols crossed
		New(-1, -1, 1, 1), // negative
	}
	for _, r := range bad {
		if r.Valid() {
			t.Errorf("%v should be invalid", r)
		}
		if r.Rows() != 0 || r.Cols() != 0 || r.Size() != 0 {
			t.Errorf("%v: invalid rect should report zero extent", r)
		}
	}
}

func TestShrink(t *testing.T) {
	w := New(1, 100, 1, 100)
	s, err := w.Shrink(New(10, 20, 30, 40))
	if err != nil {
		t.Fatal(err)
	}
	if s != New(10, 20, 30, 40) {
		t.Fatalf("shrink = %v", s)
	}
	if _, err := w.Shrink(New(50, 150, 1, 10)); err == nil {
		t.Fatal("shrink beyond owner rectangle accepted")
	}
	if _, err := w.Shrink(New(20, 10, 1, 10)); err == nil {
		t.Fatal("empty shrink target accepted")
	}
	// Shrinking to the same region is allowed (not a grow).
	if _, err := w.Shrink(w); err != nil {
		t.Fatalf("shrink to self rejected: %v", err)
	}
}

func TestRowBands(t *testing.T) {
	r := Whole(10, 4)
	bands, err := r.RowBands(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []Rect{New(1, 4, 1, 4), New(5, 7, 1, 4), New(8, 10, 1, 4)}
	if !reflect.DeepEqual(bands, want) {
		t.Fatalf("bands = %v, want %v", bands, want)
	}
	// More bands than rows: one band per row.
	bands, err = Whole(2, 5).RowBands(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 2 {
		t.Fatalf("bands = %v", bands)
	}
	if _, err := r.RowBands(0); err == nil {
		t.Fatal("zero bands accepted")
	}
	if _, err := (Rect{}).RowBands(2); err == nil {
		t.Fatal("invalid rect accepted")
	}
}

func TestOffsets(t *testing.T) {
	// 3x4 array, window on rows 2..3, cols 2..3.
	r := New(2, 3, 2, 3)
	offs, err := r.Offsets(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{5, 6, 9, 10}
	if !reflect.DeepEqual(offs, want) {
		t.Fatalf("offsets = %v, want %v", offs, want)
	}
	if _, err := r.Offsets(2, 4); err == nil {
		t.Fatal("window exceeding array accepted")
	}
	if _, err := (Rect{}).Offsets(3, 4); err == nil {
		t.Fatal("invalid window accepted")
	}
}

// Property: RowBands partitions the rectangle — bands are valid, disjoint,
// contained in the original, ordered, and their sizes sum to the original.
func TestQuickRowBandsPartition(t *testing.T) {
	f := func(rows, cols uint8, nRaw uint8) bool {
		r := Whole(int(rows%60)+1, int(cols%60)+1)
		n := int(nRaw%12) + 1
		bands, err := r.RowBands(n)
		if err != nil {
			return false
		}
		total := 0
		prevRow := r.Row1 - 1
		for _, b := range bands {
			if !b.Valid() || !r.Contains(b) {
				return false
			}
			if b.Row1 != prevRow+1 {
				return false
			}
			if b.Col1 != r.Col1 || b.Col2 != r.Col2 {
				return false
			}
			prevRow = b.Row2
			total += b.Size()
		}
		return prevRow == r.Row2 && total == r.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: shrink never grows a window and composes — shrinking twice stays
// within the original.
func TestQuickShrinkMonotone(t *testing.T) {
	f := func(a, b, c, d, e, f2, g, h uint8) bool {
		outer := Whole(int(a%50)+10, int(b%50)+10)
		t1 := New(int(c%10)+1, int(c%10)+1+int(d%5), int(e%10)+1, int(e%10)+1+int(f2%5))
		s1, err := outer.Shrink(t1)
		if err != nil {
			return true // rejected shrinks are fine; we only check accepted ones
		}
		if !outer.Contains(s1) {
			return false
		}
		t2 := New(s1.Row1, s1.Row1+int(g%3), s1.Col1, s1.Col1+int(h%3))
		s2, err := s1.Shrink(t2)
		if err != nil {
			return true
		}
		return s1.Contains(s2) && outer.Contains(s2) && s2.Size() <= s1.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Offsets are strictly increasing, within array bounds, and count
// matches Size.
func TestQuickOffsets(t *testing.T) {
	f := func(rows, cols, r1, c1, dr, dc uint8) bool {
		R, C := int(rows%40)+1, int(cols%40)+1
		row1 := int(r1)%R + 1
		col1 := int(c1)%C + 1
		row2 := row1 + int(dr)%(R-row1+1)
		col2 := col1 + int(dc)%(C-col1+1)
		w := New(row1, row2, col1, col2)
		offs, err := w.Offsets(R, C)
		if err != nil {
			return false
		}
		if len(offs) != w.Size() {
			return false
		}
		prev := -1
		for _, o := range offs {
			if o <= prev || o < 0 || o >= R*C {
				return false
			}
			prev = o
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
