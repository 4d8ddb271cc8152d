package sim

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// snapshot captures everything the determinism contract covers: the device
// cycle, every core's pipeline counters, every cache level's statistics
// (down to individual L2 banks) and the DRAM counters (down to individual
// channels).
type snapshot struct {
	cycles  uint64
	cores   []CoreStats
	l1      []mem.CacheStats
	l2      mem.CacheStats
	banks   []mem.CacheStats
	dram    mem.DRAMStats
	dramCh  []mem.DRAMStats
	memData []byte
}

// takeSnapshot collects the contract state of a finished run.
func takeSnapshot(s *Sim, hier *mem.Hierarchy, cores int) snapshot {
	snap := snapshot{cycles: s.Cycle(), l2: hier.L2Stats(), dram: hier.DRAM()}
	for c := 0; c < cores; c++ {
		snap.cores = append(snap.cores, s.CoreStatsOf(c))
		snap.l1 = append(snap.l1, hier.L1Stats(c))
	}
	for b := 0; b < hier.L2Banks(); b++ {
		snap.banks = append(snap.banks, hier.L2BankStats(b))
	}
	for ch := 0; ch < hier.DRAMChannels(); ch++ {
		snap.dramCh = append(snap.dramCh, hier.DRAMChannelStats(ch))
	}
	return snap
}

func runSnapshot(t *testing.T, cfg Config, prog string, activate func(*Sim) error, workers int) snapshot {
	t.Helper()
	p, err := asm.Assemble(prog, 0x1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	memory := mem.NewMemory(1 << 20)
	hier, err := mem.NewHierarchy(cfg.Cores, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	s, err := New(cfg, memory, hier)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(p.Base, p.Insts); err != nil {
		t.Fatal(err)
	}
	if err := activate(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	snap := takeSnapshot(s, hier, cfg.Cores)
	snap.memData = make([]byte, 1<<16)
	if err := memory.ReadBytesInto(snap.memData, 0x8000); err != nil {
		t.Fatal(err)
	}
	return snap
}

func diffSnapshots(t *testing.T, name string, seq, par snapshot) {
	t.Helper()
	if seq.cycles != par.cycles {
		t.Errorf("%s: cycles differ: sequential %d, parallel %d", name, seq.cycles, par.cycles)
	}
	for c := range seq.cores {
		if seq.cores[c] != par.cores[c] {
			t.Errorf("%s: core %d stats differ:\nseq %+v\npar %+v", name, c, seq.cores[c], par.cores[c])
		}
		if seq.l1[c] != par.l1[c] {
			t.Errorf("%s: core %d L1 stats differ:\nseq %+v\npar %+v", name, c, seq.l1[c], par.l1[c])
		}
	}
	if seq.l2 != par.l2 {
		t.Errorf("%s: L2 stats differ:\nseq %+v\npar %+v", name, seq.l2, par.l2)
	}
	for b := range seq.banks {
		if seq.banks[b] != par.banks[b] {
			t.Errorf("%s: L2 bank %d stats differ:\nseq %+v\npar %+v", name, b, seq.banks[b], par.banks[b])
		}
	}
	if seq.dram != par.dram {
		t.Errorf("%s: DRAM stats differ:\nseq %+v\npar %+v", name, seq.dram, par.dram)
	}
	for ch := range seq.dramCh {
		if seq.dramCh[ch] != par.dramCh[ch] {
			t.Errorf("%s: DRAM channel %d stats differ:\nseq %+v\npar %+v", name, ch, seq.dramCh[ch], par.dramCh[ch])
		}
	}
	for i := range seq.memData {
		if seq.memData[i] != par.memData[i] {
			t.Errorf("%s: memory differs at %#x: seq %#x, par %#x", name, 0x8000+i, seq.memData[i], par.memData[i])
			break
		}
	}
}

// strided load/store loop: every warp walks a distinct region, so the cores
// contend on the L2 and DRAM channels but never race on data.
const diffMemProg = `
	csrr s0, cid
	slli s0, s0, 14
	csrr t0, wid
	slli t1, t0, 10
	add  s0, s0, t1
	csrr t0, tid
	slli t1, t0, 6
	add  s0, s0, t1
	li   t2, 0x8000
	add  s0, s0, t2
	li   t3, 40
loop:
	lw   t4, 0(s0)
	add  t4, t4, t3
	sw   t4, 0(s0)
	addi s0, s0, 64
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// FP pipeline mix with divergence: exercises the float scoreboard and the
// ballot/split/join path under both engines.
const diffFPProg = `
	csrr t0, cid
	csrr t1, wid
	slli t1, t1, 3
	add  t0, t0, t1
	csrr t2, tid
	add  t0, t0, t2
	fcvt.s.w f0, t0
	fmul.s f1, f0, f0
	fdiv.s f2, f1, f0
	andi t3, t0, 1
	vx_split t3
	beqz t3, skip
	fsqrt.s f2, f1
skip:
	vx_join
	fmadd.s f3, f2, f1, f0
	csrr s0, cid
	slli s0, s0, 12
	csrr t1, wid
	slli t2, t1, 7
	add  s0, s0, t2
	csrr t2, tid
	slli t3, t2, 2
	add  s0, s0, t3
	li   t4, 0x9000
	add  s0, s0, t4
	fsw  f3, 0(s0)
	ecall
`

// warp spawn + barrier: warp 0 of each core spawns the rest, all meet at a
// barrier, then do a strided store.
const diffSpawnProg = `
	csrr t0, wid
	bnez t0, work
	li   t1, 4
	la   t2, work
	vx_wspawn t1, t2
work:
	li   t1, 4
	li   t0, 0
	vx_bar t0, t1
	csrr s0, cid
	slli s0, s0, 12
	csrr t1, wid
	slli t2, t1, 6
	add  s0, s0, t2
	li   t3, 0xA000
	add  s0, s0, t3
	csrr t4, wid
	sw   t4, 0(s0)
	ecall
`

// firstTouchProg has every core store, in the same cycle, to a page of its
// own that nothing has written before (0x8000 + cid*4 KiB).
const firstTouchProg = `
	csrr s0, cid
	slli s0, s0, 12
	csrr t0, tid
	slli t0, t0, 2
	add  s0, s0, t0
	li   t1, 0x8000
	add  s0, s0, t1
	addi t2, t0, 1
	sw   t2, 0(s0)
	ecall
`

// TestFirstTouchPagesParallel pins that concurrent first writes to
// untouched pages under the parallel engine (4 cores, 2 workers, event and
// tick engines) match the sequential tick engine in memory and statistics.
// Device memory allocates a page on its first write; the parallel engine
// backs every page before its cores run, and under the race detector this
// test fails if it does not.
func TestFirstTouchPagesParallel(t *testing.T) {
	cfg := DefaultConfig(4, 1, 4)
	cfg.TickEngine = true
	oracle := runSnapshot(t, cfg, firstTouchProg, activateAll(cfg, 1, 0xF), 1)
	for i := uint32(0); i < 4*4; i++ {
		off := (i/4)<<12 + (i%4)*4
		if got := binary.LittleEndian.Uint32(oracle.memData[off:]); got != (i%4)*4+1 {
			t.Fatalf("oracle store at %#x = %d, want %d", 0x8000+off, got, (i%4)*4+1)
		}
	}
	for _, tick := range []bool{true, false} {
		cfg.TickEngine = tick
		par := runSnapshot(t, cfg, firstTouchProg, activateAll(cfg, 1, 0xF), 2)
		diffSnapshots(t, fmt.Sprintf("first-touch/tick=%v/workers=2", tick), oracle, par)
	}
}

func activateAll(cfg Config, warps int, tmask uint64) func(*Sim) error {
	return func(s *Sim) error {
		for c := 0; c < cfg.Cores; c++ {
			for w := 0; w < warps; w++ {
				if err := s.ActivateWarp(c, w, 0x1000, tmask); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestParallelMatchesSequential is the differential determinism test: the
// parallel engine must produce byte-identical cycle counts, per-core
// CoreStats, cache statistics, DRAM statistics and memory contents at every
// worker count, for both schedulers.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		prog     string
		sched    SchedPolicy
		activate func(Config) func(*Sim) error
	}{
		{"mem-rr", diffMemProg, SchedRoundRobin,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }},
		{"mem-gto", diffMemProg, SchedGTO,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }},
		{"fp-divergence", diffFPProg, SchedRoundRobin,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }},
		{"wspawn-barrier", diffSpawnProg, SchedGTO,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, 1, 1) }},
		// The two heap-only policies have no scan oracle; their contract is
		// sequential/parallel byte-identity, same as rr/gto above.
		{"mem-oldest", diffMemProg, SchedOldestFirst,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }},
		{"mem-2lev", diffMemProg, SchedTwoLevel,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }},
		{"wspawn-barrier-oldest", diffSpawnProg, SchedOldestFirst,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, 1, 1) }},
		{"fp-divergence-2lev", diffFPProg, SchedTwoLevel,
			func(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4, 4, 4)
			cfg.Sched = tc.sched
			seq := runSnapshot(t, cfg, tc.prog, tc.activate(cfg), 1)
			for _, workers := range []int{2, 3, 4} {
				par := runSnapshot(t, cfg, tc.prog, tc.activate(cfg), workers)
				diffSnapshots(t, fmt.Sprintf("%s/workers=%d", tc.name, workers), seq, par)
			}
		})
	}
}

// TestParallelBankChannelMatrix pins the parallel engine's deferred commit
// against the sequential engine across {1,2,4,8} L2 banks x {1,2,4} DRAM
// channels (plus the L2-disabled bypass): cycles, per-core stats, per-bank
// L2 stats, per-channel DRAM stats and memory contents must be
// byte-identical.
func TestParallelBankChannelMatrix(t *testing.T) {
	for _, banks := range []int{1, 2, 4, 8} {
		for _, channels := range []int{1, 2, 4} {
			name := fmt.Sprintf("banks=%d/channels=%d", banks, channels)
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig(4, 4, 4)
				cfg.Mem.L2Banks = banks
				cfg.Mem.DRAM.Channels = channels
				seq := runSnapshot(t, cfg, diffMemProg, activateAll(cfg, 4, 0xF), 1)
				for _, workers := range []int{2, 4} {
					par := runSnapshot(t, cfg, diffMemProg, activateAll(cfg, 4, 0xF), workers)
					diffSnapshots(t, fmt.Sprintf("%s/workers=%d", name, workers), seq, par)
				}
			})
		}
	}
	t.Run("l2-disabled", func(t *testing.T) {
		cfg := DefaultConfig(4, 4, 4)
		cfg.Mem.L2Disabled = true
		cfg.Mem.DRAM.Channels = 3 // non-power-of-two: channels span banks
		seq := runSnapshot(t, cfg, diffMemProg, activateAll(cfg, 4, 0xF), 1)
		par := runSnapshot(t, cfg, diffMemProg, activateAll(cfg, 4, 0xF), 4)
		diffSnapshots(t, "l2-disabled", seq, par)
	})
	// Writeback-heavy stress: a tiny L2 forces dirty evictions through both
	// bank-victim paths (absorb-side and fill-side), GTO scheduling, many
	// cores, and a 3-worker pool whose core ranges are uneven.
	t.Run("writeback-stress", func(t *testing.T) {
		cfg := DefaultConfig(8, 2, 4)
		cfg.Sched = SchedGTO
		cfg.Mem.L1 = mem.CacheConfig{SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 2}
		cfg.Mem.L2 = mem.CacheConfig{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2, HitLatency: 12}
		cfg.Mem.L2Banks = 8
		cfg.Mem.DRAM.Channels = 5
		seq := runSnapshot(t, cfg, diffMemProg, activateAll(cfg, 2, 0xF), 1)
		for _, workers := range []int{3, 8} {
			par := runSnapshot(t, cfg, diffMemProg, activateAll(cfg, 2, 0xF), workers)
			diffSnapshots(t, fmt.Sprintf("writeback-stress/workers=%d", workers), seq, par)
		}
	})
}

// TestParallelNoCoalesce pins the ablation path (duplicate line requests)
// under the parallel engine.
func TestParallelNoCoalesce(t *testing.T) {
	cfg := DefaultConfig(4, 2, 4)
	run := func(workers int) snapshot {
		p := asm.MustAssemble(diffMemProg, 0x1000, nil)
		memory := mem.NewMemory(1 << 20)
		hier, _ := mem.NewHierarchy(cfg.Cores, cfg.Mem)
		cfg := cfg
		cfg.Workers = workers
		s, _ := New(cfg, memory, hier)
		s.NoCoalesce = true
		s.LoadProgram(p.Base, p.Insts)
		if err := activateAll(cfg, 2, 0xF)(s); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return takeSnapshot(s, hier, cfg.Cores)
	}
	seq := run(1)
	par := run(4)
	diffSnapshots(t, "nocoalesce", seq, par)
}

// TestParallelTrapReturnsLowestCore checks the trap contract: the
// (cycle, core)-minimal trap is reported regardless of worker count.
func TestParallelTrapReturnsLowestCore(t *testing.T) {
	// Core 0 runs one cycle longer before its bad access than core 1 would,
	// so every core traps at the same pc but core 1 first; then both trap.
	prog := `
	csrr t0, cid
	li   t1, 0x7FFFFFF0
	lw   t2, 0(t1)
	ecall
	`
	cfg := DefaultConfig(2, 1, 1)
	for _, workers := range []int{1, 2} {
		p := asm.MustAssemble(prog, 0x1000, nil)
		memory := mem.NewMemory(1 << 16)
		hier, _ := mem.NewHierarchy(cfg.Cores, cfg.Mem)
		cfg.Workers = workers
		s, _ := New(cfg, memory, hier)
		s.LoadProgram(p.Base, p.Insts)
		for c := 0; c < 2; c++ {
			if err := s.ActivateWarp(c, 0, 0x1000, 1); err != nil {
				t.Fatal(err)
			}
		}
		err := s.Run()
		trap, ok := err.(*Trap)
		if !ok {
			t.Fatalf("workers=%d: expected trap, got %v", workers, err)
		}
		if trap.Core != 0 {
			t.Errorf("workers=%d: trap on core %d, want the lowest core 0", workers, trap.Core)
		}
	}
}
