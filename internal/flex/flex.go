// Package flex simulates the Flexible FLEX/32 multicomputer used by the
// PISCES 2 implementation described in the paper (Section 11):
//
//   - 20 processors (PEs), each a National Semiconductor 32032;
//   - 1 Mbyte of local memory on each processor;
//   - 2.25 Mbyte of shared memory accessible by all processors;
//   - disks attached to PEs 1 and 2;
//   - PEs 1 and 2 run Unix and hold the file system, PEs 3-20 run MMOS and
//     are allocated to one user at a time.
//
// The simulator models the properties PISCES 2 actually relies on rather than
// the NS32032 instruction set: each PE executes at most one process at a time
// (the MMOS kernel in internal/mmos holds each PE's CPU token), each PE has a
// tick clock used for trace timestamps, local memory consumption is metered
// per PE, and the single shared memory is partitioned the same three ways the
// paper describes — a system-table region, a message heap with explicit
// allocate/free, and a region for SHARED COMMON blocks.
package flex

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
)

// Hardware constants of the NASA Langley FLEX/32 configuration (Section 11).
const (
	// NumPE is the number of processors in the machine.
	NumPE = 20
	// LocalMemoryBytes is the local memory attached to each PE (1 Mbyte).
	LocalMemoryBytes = 1 << 20
	// SharedMemoryBytes is the globally accessible shared memory (2.25 Mbyte).
	SharedMemoryBytes = 2304 * 1024
	// FirstMMOSPE is the lowest-numbered PE running MMOS; PEs 1 and 2 run
	// Unix only and are not available for PISCES user tasks.
	FirstMMOSPE = 3
)

// Config describes a simulated machine.  The zero value is not useful; use
// DefaultConfig for the NASA Langley FLEX/32.
type Config struct {
	NumPE       int // total number of PEs, numbered 1..NumPE
	LocalBytes  int // local memory per PE
	SharedBytes int // total shared memory
	TableBytes  int // shared-memory region reserved for system tables
	CommonBytes int // shared-memory region reserved for SHARED COMMON blocks
	UnixPEs     int // the first UnixPEs processors run Unix only
}

// DefaultConfig returns the NASA Langley FLEX/32 configuration described in
// Section 11 of the paper.  One quarter of shared memory is reserved for
// SHARED COMMON and a small region for system tables; the remainder is the
// message heap.
func DefaultConfig() Config {
	return Config{
		NumPE:       NumPE,
		LocalBytes:  LocalMemoryBytes,
		SharedBytes: SharedMemoryBytes,
		TableBytes:  64 * 1024,
		CommonBytes: 512 * 1024,
		UnixPEs:     2,
	}
}

// Machine is a simulated FLEX/32.
type Machine struct {
	cfg    Config
	pes    []*PE
	shared *SharedMemory
}

// NewMachine builds a machine from cfg.  Invalid configurations (no PEs,
// regions exceeding shared memory) are rejected.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.NumPE <= 0 {
		return nil, fmt.Errorf("flex: NumPE must be positive, got %d", cfg.NumPE)
	}
	if cfg.UnixPEs < 0 || cfg.UnixPEs >= cfg.NumPE {
		return nil, fmt.Errorf("flex: UnixPEs %d out of range for %d PEs", cfg.UnixPEs, cfg.NumPE)
	}
	if cfg.TableBytes+cfg.CommonBytes >= cfg.SharedBytes {
		return nil, fmt.Errorf("flex: table (%d) + common (%d) regions exceed shared memory (%d)",
			cfg.TableBytes, cfg.CommonBytes, cfg.SharedBytes)
	}
	m := &Machine{cfg: cfg}
	m.pes = make([]*PE, cfg.NumPE)
	for i := range m.pes {
		m.pes[i] = newPE(i+1, cfg.LocalBytes, i < cfg.UnixPEs)
	}
	m.shared = newSharedMemory(cfg)
	return m, nil
}

// MustNewMachine is NewMachine that panics on error, for use with known-good
// configurations such as DefaultConfig.
func MustNewMachine(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the configuration the machine was built with.
func (m *Machine) Config() Config { return m.cfg }

// NumPE returns the number of processors.
func (m *Machine) NumPE() int { return len(m.pes) }

// PE returns the processor numbered n (1-based), or nil if out of range.
func (m *Machine) PE(n int) *PE {
	if n < 1 || n > len(m.pes) {
		return nil
	}
	return m.pes[n-1]
}

// Shared returns the machine's shared memory.
func (m *Machine) Shared() *SharedMemory { return m.shared }

// MaxTicks returns the largest tick count over all PEs — the "makespan" of a
// simulated run.
func (m *Machine) MaxTicks() int64 {
	var max int64
	for _, pe := range m.pes {
		if t := pe.Ticks(); t > max {
			max = t
		}
	}
	return max
}

// TotalTicks returns the sum of tick counts over all PEs — total simulated
// processor work.
func (m *Machine) TotalTicks() int64 {
	var sum int64
	for _, pe := range m.pes {
		sum += pe.Ticks()
	}
	return sum
}

// PE is one simulated processor: a tick clock and a local memory meter.  Its
// CPU, which one process at a time holds, is the MMOS kernel's.
type PE struct {
	id   int
	unix bool

	ticks atomic.Int64

	mu         sync.Mutex
	localTotal int
	localUsed  int
	localHigh  int

	bound atomic.Int32 // processes currently bound to this PE
}

func newPE(id, localBytes int, unix bool) *PE {
	return &PE{id: id, unix: unix, localTotal: localBytes}
}

// ID returns the 1-based processor number.
func (p *PE) ID() int { return p.id }

// IsUnix reports whether the PE is reserved for the Unix front end and thus
// unavailable for PISCES user tasks.
func (p *PE) IsUnix() bool { return p.unix }

// Charge advances the PE's tick clock by n ticks of simulated work.
func (p *PE) Charge(n int64) {
	if n > 0 {
		p.ticks.Add(n)
	}
}

// Ticks returns the PE's clock reading.  Trace lines include "PE number and
// ticks count" (Section 12).
func (p *PE) Ticks() int64 { return p.ticks.Load() }

// BindProc records that a process has been created on this PE; UnbindProc
// records its termination.  The count feeds the "DISPLAY PE LOADING" view of
// the execution environment.
func (p *PE) BindProc() { p.bound.Add(1) }

// UnbindProc decrements the bound-process count.
func (p *PE) UnbindProc() { p.bound.Add(-1) }

// BoundProcs returns the number of processes currently bound to the PE.
func (p *PE) BoundProcs() int { return int(p.bound.Load()) }

// AllocLocal reserves n bytes of the PE's local memory.
func (p *PE) AllocLocal(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.localUsed+n > p.localTotal {
		return fmt.Errorf("flex: PE %d local memory exhausted (%d + %d > %d)",
			p.id, p.localUsed, n, p.localTotal)
	}
	p.localUsed += n
	if p.localUsed > p.localHigh {
		p.localHigh = p.localUsed
	}
	return nil
}

// FreeLocal releases n bytes of the PE's local memory.
func (p *PE) FreeLocal(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.localUsed -= n
	if p.localUsed < 0 {
		p.localUsed = 0
	}
}

// LocalStats returns (used, high-water, total) bytes of local memory.
func (p *PE) LocalStats() (used, high, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.localUsed, p.localHigh, p.localTotal
}

// SharedMemory models the FLEX/32 shared memory partitioned into the three
// regions of Section 11: system tables, the message heap, and SHARED COMMON.
// The message heap can additionally be split into independent shards (one per
// virtual-machine cluster) so that senders in different clusters never
// contend on one allocator lock; the physical memory is still one region, the
// shards are disjoint slices of it.
type SharedMemory struct {
	total     int
	heapBytes int

	mu          sync.Mutex
	tableTotal  int
	tableUsed   int
	tableHigh   int
	commonTotal int
	commonUsed  int
	commonHigh  int

	shards []*memory.Allocator
}

func newSharedMemory(cfg Config) *SharedMemory {
	heapBytes := cfg.SharedBytes - cfg.TableBytes - cfg.CommonBytes
	return &SharedMemory{
		total:       cfg.SharedBytes,
		heapBytes:   heapBytes,
		tableTotal:  cfg.TableBytes,
		commonTotal: cfg.CommonBytes,
		shards:      []*memory.Allocator{memory.New(heapBytes)},
	}
}

// Total returns the total shared memory size in bytes.
func (s *SharedMemory) Total() int { return s.total }

// ShardHeap repartitions the message-heap region into n equal, independently
// locked allocators.  It is called once at virtual-machine boot, before any
// message storage is allocated; resharding a heap that still holds live
// allocations is refused so no outstanding charge is given back to a shard
// that never held it.
func (s *SharedMemory) ShardHeap(n int) error {
	if n < 1 {
		return fmt.Errorf("flex: heap must have at least one shard, got %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		if sh.InUse() > 0 {
			return fmt.Errorf("flex: cannot reshard message heap with %d bytes live", sh.InUse())
		}
	}
	per := s.heapBytes / n
	shards := make([]*memory.Allocator, n)
	for i := range shards {
		size := per
		if i == n-1 {
			size = s.heapBytes - per*(n-1) // last shard absorbs the remainder
		}
		shards[i] = memory.New(size)
	}
	s.shards = shards
	return nil
}

// HeapShard returns shard i of the message heap, or nil if out of range.
func (s *SharedMemory) HeapShard(i int) *memory.Allocator {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.shards) {
		return nil
	}
	return s.shards[i]
}

// HeapShards returns all message-heap shards, in shard order.
func (s *SharedMemory) HeapShards() []*memory.Allocator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*memory.Allocator(nil), s.shards...)
}

// HeapStats returns the message-heap accounting rolled up over every shard —
// the machine-wide quantity the Section 13 storage report uses.
func (s *SharedMemory) HeapStats() memory.Stats {
	shards := s.HeapShards()
	stats := make([]memory.Stats, len(shards))
	for i, sh := range shards {
		stats[i] = sh.Stats()
	}
	return memory.Aggregate(stats...)
}

// AllocTable reserves n bytes of the system-table region.  Table entries
// (cluster and slot records) are allocated once at boot and persist for the
// run, so there is no corresponding free.
func (s *SharedMemory) AllocTable(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tableUsed+n > s.tableTotal {
		return fmt.Errorf("flex: system-table region exhausted (%d + %d > %d)", s.tableUsed, n, s.tableTotal)
	}
	s.tableUsed += n
	if s.tableUsed > s.tableHigh {
		s.tableHigh = s.tableUsed
	}
	return nil
}

// FreeTable releases n bytes of the system-table region (used when a run is
// torn down and the machine is rebooted for the next user).
func (s *SharedMemory) FreeTable(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tableUsed -= n
	if s.tableUsed < 0 {
		s.tableUsed = 0
	}
}

// AllocCommon statically reserves n bytes of the SHARED COMMON region.
func (s *SharedMemory) AllocCommon(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.commonUsed+n > s.commonTotal {
		return fmt.Errorf("flex: SHARED COMMON region exhausted (%d + %d > %d)", s.commonUsed, n, s.commonTotal)
	}
	s.commonUsed += n
	if s.commonUsed > s.commonHigh {
		s.commonHigh = s.commonUsed
	}
	return nil
}

// Usage is a snapshot of shared-memory consumption by region, the quantity
// reported in Section 13 of the paper.
type Usage struct {
	Total int

	TableUsed  int
	TableHigh  int
	TableTotal int

	CommonUsed  int
	CommonHigh  int
	CommonTotal int

	HeapInUse     int
	HeapHighWater int
	HeapTotal     int
}

// Usage returns a snapshot of all three shared-memory regions.
func (s *SharedMemory) Usage() Usage {
	s.mu.Lock()
	tu, th, tt := s.tableUsed, s.tableHigh, s.tableTotal
	cu, ch, ct := s.commonUsed, s.commonHigh, s.commonTotal
	s.mu.Unlock()
	hs := s.HeapStats()
	return Usage{
		Total:         s.total,
		TableUsed:     tu,
		TableHigh:     th,
		TableTotal:    tt,
		CommonUsed:    cu,
		CommonHigh:    ch,
		CommonTotal:   ct,
		HeapInUse:     hs.InUse,
		HeapHighWater: hs.HighWater,
		HeapTotal:     hs.ArenaSize,
	}
}

// TablePercent returns the system-table usage as a percentage of total shared
// memory — the "< 0.3% of shared memory (for system tables)" figure of
// Section 13.
func (u Usage) TablePercent() float64 {
	if u.Total == 0 {
		return 0
	}
	return 100 * float64(u.TableUsed) / float64(u.Total)
}
