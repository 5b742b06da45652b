package flex

import (
	"testing"
	"testing/quick"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumPE != 20 {
		t.Errorf("NumPE = %d, want 20", cfg.NumPE)
	}
	if cfg.LocalBytes != 1<<20 {
		t.Errorf("LocalBytes = %d, want 1 MiB", cfg.LocalBytes)
	}
	if cfg.SharedBytes != 2304*1024 {
		t.Errorf("SharedBytes = %d, want 2.25 MiB", cfg.SharedBytes)
	}
	if cfg.UnixPEs != 2 {
		t.Errorf("UnixPEs = %d, want 2", cfg.UnixPEs)
	}
	m := MustNewMachine(cfg)
	var mmos []int
	for n := 1; n <= m.NumPE(); n++ {
		if !m.PE(n).IsUnix() {
			mmos = append(mmos, n)
		}
	}
	if len(mmos) != 18 {
		t.Fatalf("MMOS PEs = %d, want 18", len(mmos))
	}
	if mmos[0] != 3 || mmos[len(mmos)-1] != 20 {
		t.Fatalf("MMOS PE range = %d..%d, want 3..20", mmos[0], mmos[len(mmos)-1])
	}
	if !m.PE(1).IsUnix() || !m.PE(2).IsUnix() {
		t.Error("PEs 1 and 2 should run Unix only")
	}
	if m.PE(3).IsUnix() {
		t.Error("PE 3 should run MMOS")
	}
}

func TestNewMachineValidation(t *testing.T) {
	cases := []Config{
		{NumPE: 0},
		{NumPE: 4, UnixPEs: 4},
		{NumPE: 4, UnixPEs: -1},
		{NumPE: 4, SharedBytes: 1024, TableBytes: 512, CommonBytes: 600},
	}
	for i, cfg := range cases {
		if _, err := NewMachine(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestPEOutOfRange(t *testing.T) {
	m := MustNewMachine(DefaultConfig())
	if m.PE(0) != nil || m.PE(21) != nil || m.PE(-3) != nil {
		t.Fatal("out-of-range PE lookups must return nil")
	}
	if m.PE(1) == nil || m.PE(20) == nil {
		t.Fatal("in-range PE lookups must not return nil")
	}
	if m.PE(7).ID() != 7 {
		t.Fatalf("PE(7).ID() = %d", m.PE(7).ID())
	}
}

func TestLocalMemoryAccounting(t *testing.T) {
	m := MustNewMachine(DefaultConfig())
	pe := m.PE(3)
	if err := pe.AllocLocal(1000); err != nil {
		t.Fatal(err)
	}
	if err := pe.AllocLocal(LocalMemoryBytes); err == nil {
		t.Fatal("expected local memory exhaustion")
	}
	used, total := pe.LocalStats()
	if used != 1000 || total != LocalMemoryBytes {
		t.Fatalf("stats = (%d,%d)", used, total)
	}
	pe.FreeLocal(1000)
	used, _ = pe.LocalStats()
	if used != 0 {
		t.Fatalf("after free: used %d", used)
	}
	pe.FreeLocal(999999) // over-free clamps to zero
	used, _ = pe.LocalStats()
	if used != 0 {
		t.Fatalf("over-free left used = %d", used)
	}
}

func TestSharedMemoryRegions(t *testing.T) {
	m := MustNewMachine(DefaultConfig())
	sh := m.Shared()
	if err := sh.AllocTable(4096); err != nil {
		t.Fatal(err)
	}
	if err := sh.AllocCommon(10000); err != nil {
		t.Fatal(err)
	}
	off, err := sh.HeapShard(0).Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	u := sh.Usage()
	if u.TableUsed != 4096 {
		t.Errorf("TableUsed = %d", u.TableUsed)
	}
	if u.CommonUsed != 10000 {
		t.Errorf("CommonUsed = %d", u.CommonUsed)
	}
	if u.HeapInUse == 0 {
		t.Error("HeapInUse = 0 after allocation")
	}
	if u.Total != SharedMemoryBytes {
		t.Errorf("Total = %d", u.Total)
	}
	if p := u.TablePercent(); p <= 0 || p > 1 {
		t.Errorf("TablePercent = %f, want small positive", p)
	}
	if err := sh.HeapShard(0).Free(off); err != nil {
		t.Fatal(err)
	}
	sh.FreeTable(4096)
	u = sh.Usage()
	if u.TableUsed != 0 || u.HeapInUse != 0 {
		t.Errorf("usage not returned to zero: %+v", u)
	}
	if u.CommonUsed != 10000 {
		t.Errorf("CommonUsed = %d after the other regions' frees, want 10000 until FreeCommon", u.CommonUsed)
	}
	sh.FreeCommon(10000)
	if u = sh.Usage(); u.CommonUsed != 0 {
		t.Errorf("CommonUsed = %d after FreeCommon, want 0", u.CommonUsed)
	}
	sh.FreeCommon(1) // over-free clamps to zero
	if u = sh.Usage(); u.CommonUsed != 0 {
		t.Errorf("over-free left CommonUsed = %d", u.CommonUsed)
	}
}

func TestSharedMemoryRegionExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNewMachine(cfg)
	sh := m.Shared()
	if err := sh.AllocTable(cfg.TableBytes + 1); err == nil {
		t.Error("expected table exhaustion")
	}
	if err := sh.AllocCommon(cfg.CommonBytes + 1); err == nil {
		t.Error("expected common exhaustion")
	}
}

func TestTickAccounting(t *testing.T) {
	m := MustNewMachine(DefaultConfig())
	m.PE(3).Charge(10)
	m.PE(4).Charge(25)
	m.PE(5).Charge(-5) // negative charges are ignored
	if got := m.MaxTicks(); got != 25 {
		t.Fatalf("MaxTicks = %d, want 25", got)
	}
	if got := m.TotalTicks(); got != 35 {
		t.Fatalf("TotalTicks = %d, want 35", got)
	}
}

func TestBindProcCount(t *testing.T) {
	m := MustNewMachine(DefaultConfig())
	pe := m.PE(9)
	for i := 0; i < 5; i++ {
		pe.BindProc()
	}
	pe.UnbindProc()
	if got := pe.BoundProcs(); got != 4 {
		t.Fatalf("BoundProcs = %d, want 4", got)
	}
}

// Property: usage percentages are always within [0, 100] and monotone with
// respect to allocation for the table region.
func TestQuickTablePercentBounds(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := MustNewMachine(DefaultConfig())
		sh := m.Shared()
		prev := 0.0
		for _, s := range sizes {
			if err := sh.AllocTable(int(s % 2048)); err != nil {
				return true // exhaustion is fine
			}
			p := sh.Usage().TablePercent()
			if p < prev || p < 0 || p > 100 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestShardHeap covers the per-cluster heap partitioning: shards cover the
// whole heap region, allocate independently, sum into the machine-wide
// usage (bytes in use, and the high-water mark as the sum of the shards'
// peaks), and resharding is refused while storage is live.
func TestShardHeap(t *testing.T) {
	m := MustNewMachine(DefaultConfig())
	sh := m.Shared()
	heapBytes := sh.HeapShard(0).Size()

	if err := sh.ShardHeap(3); err != nil {
		t.Fatal(err)
	}
	if n := len(sh.HeapShards()); n != 3 {
		t.Fatalf("%d heap shards, want 3", n)
	}
	total := 0
	for i := 0; i < 3; i++ {
		total += sh.HeapShard(i).Size()
	}
	if total != heapBytes {
		t.Errorf("shard sizes sum to %d, want the full heap region %d", total, heapBytes)
	}
	if sh.HeapShard(3) != nil || sh.HeapShard(-1) != nil {
		t.Error("out-of-range shard index did not return nil")
	}

	off, err := sh.HeapShard(1).Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	off0, err := sh.HeapShard(0).Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.HeapShard(0).Free(off0); err != nil {
		t.Fatal(err)
	}
	in1, high1 := sh.HeapShard(1).Usage()
	_, high0 := sh.HeapShard(0).Usage()
	if u := sh.Usage(); u.HeapInUse != in1 || u.HeapHighWater != high0+high1 {
		t.Errorf("Usage() heap %d in use (high %d), want shard 1's %d and the peaks' sum %d", u.HeapInUse, u.HeapHighWater, in1, high0+high1)
	}
	if err := sh.ShardHeap(2); err == nil {
		t.Error("resharding with live allocations was not refused")
	}
	if err := sh.HeapShard(1).Free(off); err != nil {
		t.Fatal(err)
	}
	if err := sh.ShardHeap(1); err != nil {
		t.Errorf("resharding an all-free heap: %v", err)
	}
	if got := sh.HeapShard(0).Size(); got != heapBytes {
		t.Errorf("arena size after unsharding = %d, want %d", got, heapBytes)
	}
	if err := sh.ShardHeap(0); err == nil {
		t.Error("ShardHeap(0) accepted")
	}
}
