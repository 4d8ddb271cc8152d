package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// rig assembles src, loads it at 0x1000 and returns a ready simulator with
// warp (0,0) activated over all threads.
func rig(t *testing.T, cfg Config, src string, defs map[string]int64) *Sim {
	t.Helper()
	s := rigNoStart(t, cfg, src, defs)
	if err := s.ActivateWarp(0, 0, 0x1000, fullMask(cfg.Threads)); err != nil {
		t.Fatal(err)
	}
	return s
}

func rigNoStart(t *testing.T, cfg Config, src string, defs map[string]int64) *Sim {
	t.Helper()
	p, err := asm.Assemble(src, 0x1000, defs)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	memory := mem.NewMemory(1 << 20)
	hier, err := mem.NewHierarchy(cfg.Cores, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, memory, hier)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(p.Base, p.Insts); err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRun(t *testing.T, s *Sim) {
	t.Helper()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func reg(t *testing.T, s *Sim, lane int, name string) uint32 {
	t.Helper()
	r, ok := regByName(name)
	if !ok {
		t.Fatalf("bad reg %q", name)
	}
	v, err := s.Reg(0, 0, lane, r)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func regByName(name string) (uint8, bool) {
	names := map[string]uint8{
		"t0": 5, "t1": 6, "t2": 7, "a0": 10, "a1": 11, "a2": 12, "a3": 13,
		"a4": 14, "a5": 15, "s0": 8, "s1": 9,
	}
	r, ok := names[name]
	return r, ok
}

func cfg1c1w1t() Config { return DefaultConfig(1, 1, 1) }

func TestStraightLineALU(t *testing.T) {
	s := rig(t, cfg1c1w1t(), `
		li a0, 7
		li a1, 5
		add a2, a0, a1
		sub a3, a0, a1
		mul a4, a0, a1
		ecall
	`, nil)
	mustRun(t, s)
	if got := reg(t, s, 0, "a2"); got != 12 {
		t.Errorf("a2 = %d", got)
	}
	if got := reg(t, s, 0, "a3"); got != 2 {
		t.Errorf("a3 = %d", got)
	}
	if got := reg(t, s, 0, "a4"); got != 35 {
		t.Errorf("a4 = %d", got)
	}
	if active, _ := s.WarpActive(0, 0); active {
		t.Error("warp still active after ecall")
	}
}

func TestLoopAndBranch(t *testing.T) {
	// Sum 1..10 = 55.
	s := rig(t, cfg1c1w1t(), `
		li t0, 10
		li a0, 0
	loop:
		add a0, a0, t0
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`, nil)
	mustRun(t, s)
	if got := reg(t, s, 0, "a0"); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	s := rig(t, cfg1c1w1t(), `
		li a0, 0x8000
		li t0, 1234
		sw t0, 0(a0)
		lw a1, 0(a0)
		sh t0, 8(a0)
		lhu a2, 8(a0)
		sb t0, 12(a0)
		lbu a3, 12(a0)
		ecall
	`, nil)
	mustRun(t, s)
	if got := reg(t, s, 0, "a1"); got != 1234 {
		t.Errorf("lw = %d", got)
	}
	if got := reg(t, s, 0, "a2"); got != 1234 {
		t.Errorf("lhu = %d", got)
	}
	if got := reg(t, s, 0, "a3"); got != 1234&0xFF {
		t.Errorf("lbu = %d", got)
	}
	if v, _ := s.Memory().Read32(0x8000); v != 1234 {
		t.Errorf("memory = %d", v)
	}
}

func TestSignExtendingLoads(t *testing.T) {
	s := rig(t, cfg1c1w1t(), `
		li a0, 0x8000
		li t0, -2
		sw t0, 0(a0)
		lb a1, 0(a0)
		lh a2, 0(a0)
		lbu a3, 0(a0)
		lhu a4, 0(a0)
		ecall
	`, nil)
	mustRun(t, s)
	if got := int32(reg(t, s, 0, "a1")); got != -2 {
		t.Errorf("lb = %d", got)
	}
	if got := int32(reg(t, s, 0, "a2")); got != -2 {
		t.Errorf("lh = %d", got)
	}
	if got := reg(t, s, 0, "a3"); got != 0xFE {
		t.Errorf("lbu = %#x", got)
	}
	if got := reg(t, s, 0, "a4"); got != 0xFFFE {
		t.Errorf("lhu = %#x", got)
	}
}

func TestPerLaneCSRsAndSIMTExecution(t *testing.T) {
	// Each of 4 lanes stores its tid to 0x8000 + 4*tid.
	cfg := DefaultConfig(1, 2, 4)
	s := rig(t, cfg, `
		csrr t0, tid
		slli t1, t0, 2
		li   t2, 0x8000
		add  t1, t1, t2
		sw   t0, 0(t1)
		ecall
	`, nil)
	mustRun(t, s)
	for lane := uint32(0); lane < 4; lane++ {
		if v, _ := s.Memory().Read32(0x8000 + 4*lane); v != lane {
			t.Errorf("lane %d stored %d", lane, v)
		}
	}
}

func TestIdentityCSRs(t *testing.T) {
	cfg := DefaultConfig(3, 2, 2)
	s := rigNoStart(t, cfg, `
		csrr a0, cid
		csrr a1, wid
		csrr a2, nt
		csrr a3, nw
		csrr a4, nc
		ecall
	`, nil)
	for core := 0; core < 3; core++ {
		for w := 0; w < 2; w++ {
			if err := s.ActivateWarp(core, w, 0x1000, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustRun(t, s)
	for core := 0; core < 3; core++ {
		for wid := 0; wid < 2; wid++ {
			cidv, _ := s.Reg(core, wid, 0, 10)
			widv, _ := s.Reg(core, wid, 0, 11)
			nt, _ := s.Reg(core, wid, 0, 12)
			nw, _ := s.Reg(core, wid, 0, 13)
			nc, _ := s.Reg(core, wid, 0, 14)
			if cidv != uint32(core) || widv != uint32(wid) {
				t.Errorf("core %d warp %d: cid=%d wid=%d", core, wid, cidv, widv)
			}
			if nt != 2 || nw != 2 || nc != 3 {
				t.Errorf("geometry CSRs = %d %d %d", nt, nw, nc)
			}
		}
	}
}

func TestSplitJoinIfThen(t *testing.T) {
	// Lanes with tid odd add 100; all lanes then add 1.
	cfg := DefaultConfig(1, 1, 4)
	s := rig(t, cfg, `
		csrr t0, tid
		andi t1, t0, 1
		li   a0, 0
		vx_split t1
		beqz t1, skip
		addi a0, a0, 100
	skip:
		vx_join
		addi a0, a0, 1
		ecall
	`, nil)
	mustRun(t, s)
	for lane := 0; lane < 4; lane++ {
		want := uint32(1)
		if lane%2 == 1 {
			want = 101
		}
		if got := reg(t, s, lane, "a0"); got != want {
			t.Errorf("lane %d a0 = %d, want %d", lane, got, want)
		}
	}
}

func TestSplitJoinUnanimous(t *testing.T) {
	// All lanes true: no divergence, body executed by all.
	cfg := DefaultConfig(1, 1, 4)
	s := rig(t, cfg, `
		li t1, 1
		li a0, 0
		vx_split t1
		beqz t1, skip
		addi a0, a0, 5
	skip:
		vx_join
		ecall
	`, nil)
	mustRun(t, s)
	for lane := 0; lane < 4; lane++ {
		if got := reg(t, s, lane, "a0"); got != 5 {
			t.Errorf("lane %d a0 = %d", lane, got)
		}
	}

	// All lanes false: body skipped by all.
	s = rig(t, cfg, `
		li t1, 0
		li a0, 0
		vx_split t1
		beqz t1, skip
		addi a0, a0, 5
	skip:
		vx_join
		ecall
	`, nil)
	mustRun(t, s)
	for lane := 0; lane < 4; lane++ {
		if got := reg(t, s, lane, "a0"); got != 0 {
			t.Errorf("lane %d a0 = %d, want 0", lane, got)
		}
	}
}

func TestDivergentLoopBallotPattern(t *testing.T) {
	// Lane i iterates i+1 times: a0 accumulates its lane's iteration count.
	cfg := DefaultConfig(1, 1, 4)
	s := rig(t, cfg, `
		csrr s0, tid
		addi s1, s0, 1   # lane bound: tid+1
		li   a0, 0       # counter
	loop:
		slt  t0, a0, s1  # continue predicate
		vx_ballot t1, t0
		beqz t1, done
		vx_split t0
		beqz t0, skip
		addi a0, a0, 1
	skip:
		vx_join
		j loop
	done:
		ecall
	`, nil)
	mustRun(t, s)
	for lane := 0; lane < 4; lane++ {
		if got := reg(t, s, lane, "a0"); got != uint32(lane+1) {
			t.Errorf("lane %d count = %d, want %d", lane, got, lane+1)
		}
	}
}

func TestDivergentBranchTraps(t *testing.T) {
	cfg := DefaultConfig(1, 1, 4)
	s := rig(t, cfg, `
		csrr t0, tid
		beqz t0, target
	target:
		ecall
	`, nil)
	err := s.Run()
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("want trap, got %v", err)
	}
	if !strings.Contains(trap.Reason, "divergent") {
		t.Errorf("trap reason = %q", trap.Reason)
	}
}

func TestTMCZeroHaltsWarp(t *testing.T) {
	cfg := DefaultConfig(1, 1, 2)
	s := rig(t, cfg, `
		li t0, 0
		vx_tmc t0
		ebreak      # must never execute
	`, nil)
	mustRun(t, s)
}

func TestTMCNarrowsMask(t *testing.T) {
	cfg := DefaultConfig(1, 1, 4)
	s := rig(t, cfg, `
		li t0, 3     # keep lanes 0,1
		vx_tmc t0
		li a0, 9
		ecall
	`, nil)
	mustRun(t, s)
	if got := reg(t, s, 0, "a0"); got != 9 {
		t.Errorf("lane 0 = %d", got)
	}
	if got := reg(t, s, 2, "a0"); got != 0 {
		t.Errorf("masked lane 2 wrote %d", got)
	}
}

func TestWspawn(t *testing.T) {
	cfg := DefaultConfig(1, 4, 2)
	s := rigNoStart(t, cfg, `
		csrr t0, wid
		bnez t0, child    # uniform: warp-level
		li   t1, 3        # spawn warps 1,2 (total 3)
		la   t2, child
		vx_wspawn t1, t2
	child:
		csrr a0, wid
		addi a0, a0, 40
		ecall
	`, nil)
	if err := s.ActivateWarp(0, 0, 0x1000, 3); err != nil {
		t.Fatal(err)
	}
	mustRun(t, s)
	for wid := 0; wid < 3; wid++ {
		v, _ := s.Reg(0, wid, 0, 10)
		if v != uint32(40+wid) {
			t.Errorf("warp %d a0 = %d, want %d", wid, v, 40+wid)
		}
	}
	if v, _ := s.Reg(0, 3, 0, 10); v != 0 {
		t.Errorf("unspawned warp 3 executed: a0=%d", v)
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	// Warp 0 busy-loops then stores; warps must all see the barrier release
	// after every warp has stored its marker.
	cfg := DefaultConfig(1, 3, 1)
	s := rigNoStart(t, cfg, `
		csrr t0, wid
		slli t1, t0, 2
		li   t2, 0x8000
		add  t1, t1, t2
		li   t3, 1
		sw   t3, 0(t1)
		li   t4, 0       # barrier id
		li   t5, 3       # expected warps
		vx_bar t4, t5
		# After the barrier, every warp checks all three flags are set.
		li   t2, 0x8000
		lw   a0, 0(t2)
		lw   a1, 4(t2)
		lw   a2, 8(t2)
		add  a0, a0, a1
		add  a0, a0, a2
		ecall
	`, nil)
	for w := 0; w < 3; w++ {
		if err := s.ActivateWarp(0, w, 0x1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, s)
	for w := 0; w < 3; w++ {
		if v, _ := s.Reg(0, w, 0, 10); v != 3 {
			t.Errorf("warp %d saw %d flags", w, v)
		}
	}
}

func TestBarrierDeadlockDetected(t *testing.T) {
	cfg := DefaultConfig(1, 2, 1)
	s := rigNoStart(t, cfg, `
		li t4, 0
		li t5, 2
		vx_bar t4, t5
		ecall
	`, nil)
	// Only one warp arrives at a barrier expecting two.
	if err := s.ActivateWarp(0, 0, 0x1000, 1); err != nil {
		t.Fatal(err)
	}
	err := s.Run()
	var trap *Trap
	if !errors.As(err, &trap) || !strings.Contains(trap.Reason, "deadlock") {
		t.Fatalf("want deadlock trap, got %v", err)
	}
}

func TestPredNarrowsButNeverEmpties(t *testing.T) {
	cfg := DefaultConfig(1, 1, 4)
	s := rig(t, cfg, `
		csrr t0, tid
		slti t1, t0, 2   # lanes 0,1
		vx_pred t1
		li a0, 7
		li t2, 0
		vx_pred t2       # would empty: must be ignored
		li a1, 8
		ecall
	`, nil)
	mustRun(t, s)
	if got := reg(t, s, 0, "a0"); got != 7 {
		t.Errorf("lane 0 a0 = %d", got)
	}
	if got := reg(t, s, 2, "a0"); got != 0 {
		t.Errorf("lane 2 a0 = %d, want 0 (predicated off)", got)
	}
	if got := reg(t, s, 1, "a1"); got != 8 {
		t.Errorf("lane 1 a1 = %d (pred-to-empty must be ignored)", got)
	}
}

func TestFloatArithmetic(t *testing.T) {
	s := rig(t, cfg1c1w1t(), `
		li t0, 3
		li t1, 4
		fcvt.s.w f0, t0
		fcvt.s.w f1, t1
		fadd.s f2, f0, f1
		fmul.s f3, f0, f1
		fdiv.s f4, f1, f0
		fsqrt.s f5, f1
		fmadd.s f6, f0, f1, f2
		fcvt.w.s a0, f2
		fcvt.w.s a1, f3
		flt.s a2, f0, f1
		fle.s a3, f1, f0
		ecall
	`, nil)
	mustRun(t, s)
	if got := reg(t, s, 0, "a0"); got != 7 {
		t.Errorf("3+4 = %d", got)
	}
	if got := reg(t, s, 0, "a1"); got != 12 {
		t.Errorf("3*4 = %d", got)
	}
	if got := reg(t, s, 0, "a2"); got != 1 {
		t.Errorf("3<4 = %d", got)
	}
	if got := reg(t, s, 0, "a3"); got != 0 {
		t.Errorf("4<=3 = %d", got)
	}
	f4, _ := s.FReg(0, 0, 0, 4)
	if math.Float32frombits(f4) != float32(4)/3 {
		t.Errorf("fdiv = %v", math.Float32frombits(f4))
	}
	f5, _ := s.FReg(0, 0, 0, 5)
	if math.Float32frombits(f5) != 2 {
		t.Errorf("sqrt(4) = %v", math.Float32frombits(f5))
	}
	f6, _ := s.FReg(0, 0, 0, 6)
	if math.Float32frombits(f6) != 19 {
		t.Errorf("fma(3,4,7) = %v", math.Float32frombits(f6))
	}
}

func TestOutOfBoundsLoadTraps(t *testing.T) {
	s := rig(t, cfg1c1w1t(), `
		li a0, 0x7FFFFFF0
		lw a1, 0(a0)
		ecall
	`, nil)
	err := s.Run()
	var trap *Trap
	if !errors.As(err, &trap) || !strings.Contains(trap.Reason, "out of bounds") {
		t.Fatalf("want OOB trap, got %v", err)
	}
}

func TestMisalignedAccessTraps(t *testing.T) {
	s := rig(t, cfg1c1w1t(), `
		li a0, 0x8002
		lw a1, 0(a0)
		ecall
	`, nil)
	err := s.Run()
	var trap *Trap
	if !errors.As(err, &trap) || !strings.Contains(trap.Reason, "misaligned") {
		t.Fatalf("want misalignment trap, got %v", err)
	}
}

// memTrapProg: lane addresses of tid<<20 + 0x8000 — lane 0 in bounds,
// every higher lane far outside the 1 MiB device memory. The store must
// trap without committing lane 0's write.
const memTrapProg = `
	csrr t0, tid
	slli t2, t0, 20
	li   t3, 0x8000
	add  t2, t2, t3
	li   t4, 0xdead
	sw   t4, 0(t2)
	ecall
`

// newWhiteboxSim builds a 1-core simulator over a 1 MiB memory with warps
// 0..warps-1 activated at the program start under tmask.
func newWhiteboxSim(t *testing.T, cfg Config, prog string, warps int, tmask uint64) *Sim {
	t.Helper()
	s := rigNoStart(t, cfg, prog, nil)
	for w := 0; w < warps; w++ {
		if err := s.ActivateWarp(0, w, 0x1000, tmask); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestMemTrapNoPartialMutation pins the validate-before-mutate contract of
// executeMem: a store warp that traps on a later lane must leave memory
// untouched — including the earlier lanes that individually were in bounds
// — with byte-identical trap records under the tick and event engines. In
// the four-warp case the other warps are still pending at the same store.
func TestMemTrapNoPartialMutation(t *testing.T) {
	run := func(tick bool, warps int) *Trap {
		t.Helper()
		cfg := DefaultConfig(1, 4, 4)
		cfg.TickEngine = tick
		s := newWhiteboxSim(t, cfg, memTrapProg, warps, 0x3)
		err := s.Run()
		var trap *Trap
		if !errors.As(err, &trap) {
			t.Fatalf("tick=%v warps=%d: expected out-of-bounds trap, got %v", tick, warps, err)
		}
		if v, _ := s.Memory().Read32(0x8000); v != 0 {
			t.Fatalf("tick=%v warps=%d: lane 0 store committed (%#x) despite lane 1 trap", tick, warps, v)
		}
		return trap
	}
	for _, warps := range []int{1, 4} {
		event, tick := run(false, warps), run(true, warps)
		if *event != *tick {
			t.Errorf("warps=%d: trap differs:\nevent %+v\ntick  %+v", warps, event, tick)
		}
	}
}

func TestFetchOutsideProgramTraps(t *testing.T) {
	s := rig(t, cfg1c1w1t(), `
		li a0, 0
		jr a0
	`, nil)
	err := s.Run()
	var trap *Trap
	if !errors.As(err, &trap) || !strings.Contains(trap.Reason, "fetch") {
		t.Fatalf("want fetch trap, got %v", err)
	}
}

func TestExecutingDataWordTraps(t *testing.T) {
	s := rig(t, cfg1c1w1t(), `
		j data
	data:
		.word 0xFFFFFFFF
	`, nil)
	err := s.Run()
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("want trap, got %v", err)
	}
}

func TestJoinEmptyStackTraps(t *testing.T) {
	s := rig(t, cfg1c1w1t(), "vx_join\necall", nil)
	err := s.Run()
	var trap *Trap
	if !errors.As(err, &trap) || !strings.Contains(trap.Reason, "IPDOM") {
		t.Fatalf("want IPDOM trap, got %v", err)
	}
}

func TestScoreboardEnforcesLoadLatency(t *testing.T) {
	// A load followed immediately by a consumer: total cycles must include
	// the full memory latency (cold miss to DRAM), proving the dependent
	// add waited.
	cfg := cfg1c1w1t()
	s := rig(t, cfg, `
		li a0, 0x8000
		lw a1, 0(a0)
		addi a2, a1, 1
		ecall
	`, nil)
	start := s.Cycle()
	mustRun(t, s)
	elapsed := s.Cycle() - start
	memCfg := cfg.Mem
	coldMiss := uint64(memCfg.L1.HitLatency + memCfg.L2.HitLatency + memCfg.DRAM.Latency + memCfg.L1.LineBytes/memCfg.DRAM.BytesPerCycle)
	if elapsed < coldMiss {
		t.Errorf("elapsed %d < cold miss latency %d; dependent add did not wait", elapsed, coldMiss)
	}
}

func TestIndependentWarpsHideMemoryLatency(t *testing.T) {
	// Two warps issuing independent cold loads + dependent adds should
	// overlap their stalls: the two-warp run must be much faster than 2x a
	// one-warp run of the same program.
	prog := `
		csrr t0, wid
		slli t0, t0, 8
		li a0, 0x8000
		add a0, a0, t0
		lw a1, 0(a0)
		addi a2, a1, 1
		ecall
	`
	run := func(nwarps int) uint64 {
		cfg := DefaultConfig(1, 2, 1)
		s := rigNoStart(t, cfg, prog, nil)
		for w := 0; w < nwarps; w++ {
			if err := s.ActivateWarp(0, w, 0x1000, 1); err != nil {
				t.Fatal(err)
			}
		}
		mustRun(t, s)
		return s.Cycle()
	}
	one := run(1)
	two := run(2)
	if two >= 2*one {
		t.Errorf("no latency hiding: 1 warp %d cycles, 2 warps %d", one, two)
	}
	if two > one+one/2 {
		t.Errorf("poor latency hiding: 1 warp %d cycles, 2 warps %d", one, two)
	}
}

func TestCoalescingReducesLineRequests(t *testing.T) {
	// 4 lanes load consecutive words: one line request. Strided by 64B:
	// four requests.
	cfg := DefaultConfig(1, 1, 4)
	consec := rig(t, cfg, `
		csrr t0, tid
		slli t1, t0, 2
		li   t2, 0x8000
		add  t1, t1, t2
		lw   a0, 0(t1)
		ecall
	`, nil)
	mustRun(t, consec)
	if got := consec.TotalStats().LineRequests; got != 1 {
		t.Errorf("consecutive lanes made %d line requests, want 1", got)
	}

	strided := rig(t, cfg, `
		csrr t0, tid
		slli t1, t0, 6
		li   t2, 0x8000
		add  t1, t1, t2
		lw   a0, 0(t1)
		ecall
	`, nil)
	mustRun(t, strided)
	if got := strided.TotalStats().LineRequests; got != 4 {
		t.Errorf("strided lanes made %d line requests, want 4", got)
	}
}

func TestNoCoalesceAblation(t *testing.T) {
	cfg := DefaultConfig(1, 1, 4)
	s := rig(t, cfg, `
		csrr t0, tid
		slli t1, t0, 2
		li   t2, 0x8000
		add  t1, t1, t2
		lw   a0, 0(t1)
		ecall
	`, nil)
	s.NoCoalesce = true
	mustRun(t, s)
	if got := s.TotalStats().LineRequests; got != 4 {
		t.Errorf("NoCoalesce made %d line requests, want 4", got)
	}
}

func TestObserverSeesIssues(t *testing.T) {
	cfg := cfg1c1w1t()
	s := rig(t, cfg, `
		li a0, 1
		li a1, 2
		add a2, a0, a1
		ecall
	`, nil)
	var events []IssueEvent
	s.SetObserver(func(e IssueEvent) { events = append(events, e) })
	mustRun(t, s)
	if len(events) != 4 {
		t.Fatalf("observed %d events, want 4", len(events))
	}
	if events[0].PC != 0x1000 || events[3].PC != 0x100C {
		t.Errorf("event PCs = %#x..%#x", events[0].PC, events[3].PC)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle <= events[i-1].Cycle {
			t.Errorf("non-monotonic cycles %d..%d", events[i-1].Cycle, events[i].Cycle)
		}
	}
}

func TestMulticoreParallelism(t *testing.T) {
	// The same independent workload on 1 vs 4 cores: 4 cores should be
	// close to 4x faster (no shared bottleneck for ALU work).
	prog := `
		li t0, 2000
	loop:
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`
	run := func(cores int) uint64 {
		cfg := DefaultConfig(cores, 1, 1)
		s := rigNoStart(t, cfg, prog, nil)
		for c := 0; c < cores; c++ {
			if err := s.ActivateWarp(c, 0, 0x1000, 1); err != nil {
				t.Fatal(err)
			}
		}
		mustRun(t, s)
		return s.Cycle()
	}
	one := run(1)
	four := run(4)
	if four > one+one/10 {
		t.Errorf("4 cores took %d cycles vs %d for 1 core on independent work", four, one)
	}
}

func TestGTOSchedulerRuns(t *testing.T) {
	cfg := DefaultConfig(1, 4, 2)
	cfg.Sched = SchedGTO
	s := rigNoStart(t, cfg, `
		li t0, 100
	loop:
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`, nil)
	for w := 0; w < 4; w++ {
		if err := s.ActivateWarp(0, w, 0x1000, 3); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, s)
	if s.TotalStats().Issued == 0 {
		t.Error("no instructions issued under GTO")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Cores: 0, Warps: 1, Threads: 1, Lat: DefaultLatencies()},
		{Cores: 1, Warps: 0, Threads: 1, Lat: DefaultLatencies()},
		{Cores: 1, Warps: 1, Threads: 65, Lat: DefaultLatencies()},
		{Cores: 1, Warps: 1, Threads: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig(64, 32, 32).Validate(); err != nil {
		t.Errorf("max paper config rejected: %v", err)
	}
}

func TestHPAndName(t *testing.T) {
	c := DefaultConfig(4, 8, 16)
	if c.HP() != 512 {
		t.Errorf("HP = %d", c.HP())
	}
	if c.Name() != "4c8w16t" {
		t.Errorf("Name = %s", c.Name())
	}
}

func TestActivateWarpValidation(t *testing.T) {
	cfg := DefaultConfig(1, 1, 2)
	s := rigNoStart(t, cfg, "ecall", nil)
	if err := s.ActivateWarp(1, 0, 0x1000, 1); err == nil {
		t.Error("bad core accepted")
	}
	if err := s.ActivateWarp(0, 0, 0x1000, 0); err == nil {
		t.Error("zero mask accepted")
	}
	if err := s.ActivateWarp(0, 0, 0x1000, 0xF); err == nil {
		t.Error("over-wide mask accepted")
	}
	if err := s.ActivateWarp(0, 0, 0x1000, 3); err != nil {
		t.Error(err)
	}
	if err := s.ActivateWarp(0, 0, 0x1000, 3); err == nil {
		t.Error("double activation accepted")
	}
}

func TestCycleLimit(t *testing.T) {
	cfg := cfg1c1w1t()
	cfg.MaxCycles = 100
	s := rig(t, cfg, `
	loop:
		j loop
	`, nil)
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), "cycle limit") {
		t.Fatalf("want cycle-limit error, got %v", err)
	}
}

func TestCSRWriteTraps(t *testing.T) {
	s := rig(t, cfg1c1w1t(), `
		li t0, 5
		csrw 0x800, t0
		ecall
	`, nil)
	err := s.Run()
	var trap *Trap
	if !errors.As(err, &trap) || !strings.Contains(trap.Reason, "read-only") {
		t.Fatalf("want CSR trap, got %v", err)
	}
}

func TestStallAccounting(t *testing.T) {
	// A chain of dependent cold loads must record memory stalls.
	s := rig(t, cfg1c1w1t(), `
		li a0, 0x8000
		lw a1, 0(a0)
		lw a2, 0(a1)
		ecall
	`, nil)
	// Make the pointed-to location valid: 0x8000 holds 0x9000.
	s.Memory().Write32(0x8000, 0x9000)
	mustRun(t, s)
	st := s.TotalStats()
	if st.MemStall == 0 {
		t.Errorf("no memory stalls recorded: %+v", st)
	}
}

func TestNestedSplitJoin(t *testing.T) {
	// Nested divergence: lanes 2,3 take outer; of those, lane 3 takes inner.
	cfg := DefaultConfig(1, 1, 4)
	s := rig(t, cfg, `
		csrr t0, tid
		li   a0, 0
		slti t1, t0, 2
		xori t1, t1, 1      # t1 = tid >= 2
		vx_split t1
		beqz t1, outer_skip
		addi a0, a0, 10     # lanes 2,3
		addi t2, t0, -3
		seqz t2, t2         # t2 = tid == 3
		vx_split t2
		beqz t2, inner_skip
		addi a0, a0, 100    # lane 3 only
	inner_skip:
		vx_join
		addi a0, a0, 1      # lanes 2,3
	outer_skip:
		vx_join
		addi a0, a0, 1000   # all lanes
		ecall
	`, nil)
	mustRun(t, s)
	want := map[int]uint32{0: 1000, 1: 1000, 2: 1011, 3: 1111}
	for lane, w := range want {
		if got := reg(t, s, lane, "a0"); got != w {
			t.Errorf("lane %d a0 = %d, want %d", lane, got, w)
		}
	}
}
