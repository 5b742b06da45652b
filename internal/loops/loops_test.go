package loops

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestIterations(t *testing.T) {
	cases := []struct {
		lo, hi, step int
		want         []int
	}{
		{1, 5, 1, []int{1, 2, 3, 4, 5}},
		{1, 10, 3, []int{1, 4, 7, 10}},
		{1, 9, 3, []int{1, 4, 7}},
		{5, 1, 1, nil},
		{5, 1, -2, []int{5, 3, 1}},
		{3, 3, 1, []int{3}},
		{0, -6, -3, []int{0, -3, -6}},
	}
	for _, c := range cases {
		got, err := Iterations(c.lo, c.hi, c.step)
		if err != nil {
			t.Fatalf("Iterations(%d,%d,%d): %v", c.lo, c.hi, c.step, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Iterations(%d,%d,%d) = %v, want %v", c.lo, c.hi, c.step, got, c.want)
		}
		n, err := Count(c.lo, c.hi, c.step)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(c.want) {
			t.Errorf("Count(%d,%d,%d) = %d, want %d", c.lo, c.hi, c.step, n, len(c.want))
		}
	}
	if _, err := Iterations(1, 5, 0); err == nil {
		t.Error("zero step should be rejected")
	}
	if _, err := Count(1, 5, 0); err == nil {
		t.Error("zero step should be rejected by Count")
	}
	// ForEach visits the same sequence as Iterations without materialising it.
	for _, c := range cases {
		var got []int
		if err := ForEach(c.lo, c.hi, c.step, func(i int) bool {
			got = append(got, i)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ForEach(%d,%d,%d) visited %v, want %v", c.lo, c.hi, c.step, got, c.want)
		}
	}
	// Early stop.
	var seen []int
	if err := ForEach(1, 10, 1, func(i int) bool {
		seen = append(seen, i)
		return i < 3
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, []int{1, 2, 3}) {
		t.Errorf("ForEach early stop visited %v", seen)
	}
	if err := ForEach(1, 5, 0, func(int) bool { return true }); err == nil {
		t.Error("zero step should be rejected by ForEach")
	}
}

func TestPreschedPaperExample(t *testing.T) {
	// "The Ith force member takes iterations I, N+I, 2*N+I, etc."
	// With 1-based member numbering in the paper and a DO 1,12 loop over 3
	// members, member 1 takes 1,4,7,10; member 2 takes 2,5,8,11; etc.
	want := map[int][]int{
		0: {1, 4, 7, 10},
		1: {2, 5, 8, 11},
		2: {3, 6, 9, 12},
	}
	for member, w := range want {
		got, err := Presched(1, 12, 1, member, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("member %d: got %v, want %v", member, got, w)
		}
	}
}

func TestPreschedErrors(t *testing.T) {
	if _, err := Presched(1, 10, 1, 0, 0); err == nil {
		t.Error("zero members accepted")
	}
	if _, err := Presched(1, 10, 1, 5, 3); err == nil {
		t.Error("member out of range accepted")
	}
	if _, err := Presched(1, 10, 0, 0, 2); err == nil {
		t.Error("zero step accepted")
	}
}

// TestPreschedPosition pins where a member's iterations sit in the loop: the
// k-th iteration member i of N takes is the one at position i + k*N.
func TestPreschedPosition(t *testing.T) {
	all, err := Iterations(1, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Presched(1, 40, 2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != 4 {
		t.Fatalf("member 2 of 5 took %d of 20 iterations, want 4", len(part))
	}
	for k, i := range part {
		if want := all[2+k*5]; i != want {
			t.Fatalf("member 2 of 5: iteration %d is %d, want %d (position %d)", k, i, want, 2+k*5)
		}
	}
}

// Property: PRESCHED over any member count partitions the iteration space —
// every iteration appears exactly once across members, none are lost or
// duplicated, and the same program text works for any force size (Section 7:
// "The same program text may be executed without change by a force of any
// number of members").
func TestQuickPreschedPartition(t *testing.T) {
	f := func(loRaw, span, stepRaw int8, membersRaw uint8) bool {
		lo := int(loRaw)
		step := int(stepRaw)
		if step == 0 {
			step = 1
		}
		n := int(span % 40)
		if n < 0 {
			n = -n
		}
		hi := lo + (n-1)*step
		if n == 0 {
			hi = lo - step // empty loop
		}
		members := int(membersRaw%8) + 1

		all, err := Iterations(lo, hi, step)
		if err != nil {
			return false
		}
		var merged []int
		for m := 0; m < members; m++ {
			part, err := Presched(lo, hi, step, m, members)
			if err != nil {
				return false
			}
			merged = append(merged, part...)
		}
		if len(merged) != len(all) {
			return false
		}
		sort.Ints(merged)
		sorted := append([]int(nil), all...)
		sort.Ints(sorted)
		return reflect.DeepEqual(merged, sorted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSelfschedCoversAllIterations(t *testing.T) {
	ctr := newLocalCounter(10)
	var got []int
	n, err := Selfsched(2, 20, 2, ctr, func(i int) { got = append(got, i) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("executed %d iterations, want 10", n)
	}
	want := []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestSelfschedSharedCounterAcrossMembers(t *testing.T) {
	// Several members draining the same counter must cover each iteration
	// exactly once in total.
	ctr := newLocalCounter(23)
	seen := map[int]int{}
	total := 0
	for member := 0; member < 4; member++ {
		n, err := Selfsched(1, 23, 1, ctr, func(i int) { seen[i]++ })
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 23 {
		t.Fatalf("total iterations %d, want 23", total)
	}
	for i := 1; i <= 23; i++ {
		if seen[i] != 1 {
			t.Fatalf("iteration %d executed %d times", i, seen[i])
		}
	}
}

func TestSelfschedCounterLargerThanLoop(t *testing.T) {
	// A counter with more positions than the loop has iterations must not
	// run the body past the end.
	ctr := newLocalCounter(100)
	count := 0
	n, err := Selfsched(1, 5, 1, ctr, func(int) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || count != 5 {
		t.Fatalf("n=%d count=%d, want 5", n, count)
	}
}

func TestSelfschedZeroStep(t *testing.T) {
	if _, err := Selfsched(1, 5, 0, newLocalCounter(5), func(int) {}); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestSegments(t *testing.T) {
	// PARSEG with 5 segments over 2 members: member 0 gets 0,2,4; member 1 gets 1,3.
	s0, err := Segments(5, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Segments(5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s0, []int{0, 2, 4}) || !reflect.DeepEqual(s1, []int{1, 3}) {
		t.Fatalf("segments: %v / %v", s0, s1)
	}
	if _, err := Segments(5, 3, 2); err == nil {
		t.Error("out-of-range member accepted")
	}
	if _, err := Segments(-1, 0, 2); err == nil {
		t.Error("negative total accepted")
	}
	if _, err := Segments(5, 0, 0); err == nil {
		t.Error("zero members accepted")
	}
}

func TestListSchedule(t *testing.T) {
	// Four iterations of very uneven cost over two members: greedy claiming
	// puts the expensive one alone.
	costs := []int64{100, 1, 1, 1}
	assign, makespan, err := ListSchedule(costs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if makespan != 100 {
		t.Fatalf("makespan = %d, want 100", makespan)
	}
	if len(assign[0]) != 1 || len(assign[1]) != 3 {
		t.Fatalf("assignment = %v", assign)
	}
	if _, _, err := ListSchedule(costs, 0, 0); err == nil {
		t.Fatal("zero members accepted")
	}
	// Negative costs are clamped rather than corrupting the schedule.
	if _, ms, err := ListSchedule([]int64{-5, 10}, 1, 0); err != nil || ms != 10 {
		t.Fatalf("negative cost handling: %d, %v", ms, err)
	}
}

// Property: ListSchedule assigns every iteration exactly once, its makespan is
// at least the average load and at most the serial total, and never worse
// than the worst single iteration.
func TestQuickListScheduleBounds(t *testing.T) {
	f := func(raw []uint8, membersRaw uint8) bool {
		members := int(membersRaw%8) + 1
		costs := make([]int64, len(raw))
		var total, maxCost int64
		for i, r := range raw {
			costs[i] = int64(r%50) + 1
			total += costs[i]
			if costs[i] > maxCost {
				maxCost = costs[i]
			}
		}
		assign, makespan, err := ListSchedule(costs, members, 0)
		if err != nil {
			return false
		}
		seen := make([]bool, len(costs))
		count := 0
		for _, idxs := range assign {
			for _, i := range idxs {
				if i < 0 || i >= len(costs) || seen[i] {
					return false
				}
				seen[i] = true
				count++
			}
		}
		if count != len(costs) {
			return false
		}
		if len(costs) == 0 {
			return makespan == 0
		}
		avg := total / int64(members)
		return makespan >= avg && makespan <= total && makespan >= maxCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPresched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Presched(1, 1024, 1, i%8, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// localCounter is a process-local Counter handing out 0..n-1, the sequential
// stand-in for the force's shared-memory counter.
type localCounter struct {
	next, limit int
}

func newLocalCounter(n int) *localCounter { return &localCounter{limit: n} }

func (c *localCounter) Next() (int, bool) {
	if c.next >= c.limit {
		return 0, false
	}
	v := c.next
	c.next++
	return v, true
}
