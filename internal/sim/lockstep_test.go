package sim

import (
	"fmt"
	"testing"
)

// Lockstep-warp differential harness (bare-simulator level). The programs
// here keep every warp of a core at the same pc with the same mask — the
// shape the removed cohort-batching fast path was built for (DESIGN.md,
// "Cohort batching removed") — and cover what it used to special-case:
// uniform compute over the whole op set, unit-stride and strided loads and
// stores, stores that overlap between warps, sub-word accesses, and
// per-warp address vectors with no common stride. The contract under test
// is the engine harness's: every simulated observable — cycles, per-core
// statistics, cache/DRAM statistics, memory contents, traps — from the
// per-warp execute path is byte-identical to the sequential tick-engine
// oracle under every scheduler policy, both engines and the parallel
// runner. The Batch* test names are kept from the batching era.

// uniformComputeProg keeps every warp of a core in lockstep through a
// compute-heavy loop: fast ALU ops, the slow mul/div arm, immediates,
// lui/auipc, and the FP pipelines. Lane values differ (tid-dependent) while
// control flow is warp-uniform (bnez on a loop counter every lane shares).
// Results land in the snapshot window.
const uniformComputeProg = `
	csrr s0, cid
	csrr s1, wid
	csrr s2, tid
	slli t0, s1, 3
	add  t0, t0, s2
	add  t0, t0, s0
	fcvt.s.w f0, t0
	li   t1, 48
	li   t2, 0
	li   t3, 7
loop:
	add  t2, t2, t0
	xor  t4, t2, t1
	mul  t5, t4, t3
	sub  t2, t5, t4
	ori  t6, t2, 1
	div  a2, t5, t6
	lui  a0, 0x12
	auipc a1, 0
	add  a0, a0, a2
	fadd.s f1, f0, f0
	fmul.s f2, f1, f0
	fmadd.s f3, f2, f1, f0
	fsgnjx.s f4, f3, f2
	fmin.s f5, f4, f1
	addi t1, t1, -1
	bnez t1, loop
	slli s3, s0, 12
	slli s4, s1, 7
	add  s3, s3, s4
	slli s5, s2, 3
	add  s3, s3, s5
	li   s6, 0x8000
	add  s3, s3, s6
	sw   t2, 0(s3)
	fsw  f3, 4(s3)
	ecall
`

// memUnitProg: every warp streams full-mask unit-stride words. The loop
// reuses static offsets from a fixed base (no pointer advance), so after
// the first pass every access is an L1 hit and the warps stay in lockstep.
const memUnitProg = `
	csrr s0, cid
	slli s0, s0, 13
	csrr s1, wid
	slli t0, s1, 7
	add  s0, s0, t0
	csrr t1, tid
	slli t0, t1, 2
	add  s0, s0, t0
	li   t2, 0x8000
	add  s0, s0, t2
	li   t3, 24
	addi s2, s1, 3
loop:
	lw   t4, 0(s0)
	add  t4, t4, s2
	sw   t4, 0(s0)
	lw   t5, 32(s0)
	add  t5, t5, t4
	sw   t5, 32(s0)
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// memStridedProg: a lane stride of 64 bytes, so every lane of a warp
// touches its own cache line and each warp instruction coalesces into
// eight lines.
const memStridedProg = `
	csrr s0, cid
	slli s0, s0, 14
	csrr s1, wid
	slli t0, s1, 11
	add  s0, s0, t0
	csrr t1, tid
	slli t0, t1, 6
	add  s0, s0, t0
	li   t2, 0x8000
	add  s0, s0, t2
	li   t3, 16
	addi s2, s1, 1
loop:
	lw   t4, 0(s0)
	add  t4, t4, s2
	sw   t4, 0(s0)
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// memOverlapProg: every warp of a core stores to and loads from the SAME
// addresses. The store each warp observes with its own load depends purely
// on issue order, which no engine or worker count may change.
const memOverlapProg = `
	csrr s0, cid
	slli s0, s0, 10
	csrr t1, tid
	slli t0, t1, 2
	add  s0, s0, t0
	li   t2, 0x8000
	add  s0, s0, t2
	csrr s1, wid
	li   t3, 12
loop:
	addi t4, s1, 0x40
	sw   t4, 0(s0)
	lw   t5, 0(s0)
	add  t6, t5, t4
	sw   t6, 64(s0)
	addi t3, t3, -1
	bnez t3, loop
	ecall
`

// memByteHalfProg: sub-word loads and stores (sb/lb/lbu, sh/lh/lhu),
// folded into a word store so the results land in the snapshot window.
const memByteHalfProg = `
	csrr s0, cid
	slli s0, s0, 12
	csrr s1, wid
	slli t0, s1, 8
	add  s0, s0, t0
	csrr t1, tid
	slli t0, t1, 3
	add  s0, s0, t0
	li   t2, 0x8000
	add  s0, s0, t2
	addi t3, t1, 0x41
	sb   t3, 0(s0)
	lb   t4, 0(s0)
	lbu  t5, 0(s0)
	sh   t3, 2(s0)
	lh   t6, 2(s0)
	lhu  s2, 2(s0)
	add  t4, t4, t5
	add  t4, t4, t6
	add  t4, t4, s2
	sw   t4, 4(s0)
	ecall
`

// memNonCongruentProg: the lane stride is wid*4, so warp 0's lanes all hit
// one address while higher warps spread out — no two warps' address
// vectors differ by a single per-warp offset.
const memNonCongruentProg = `
	csrr s1, wid
	csrr t1, tid
	mul  t0, t1, s1
	slli t0, t0, 2
	li   t2, 0x8000
	add  t0, t0, t2
	csrr s0, cid
	slli s2, s0, 11
	add  t0, t0, s2
	addi t3, s1, 5
	sw   t3, 0(t0)
	lw   t4, 0(t0)
	slli t5, s1, 7
	add  t5, t5, t2
	slli t6, t1, 2
	add  t5, t5, t6
	add  t5, t5, s2
	sw   t4, 0x400(t5)
	ecall
`

// lockstepCase is one program of the harness with its warp activation.
type lockstepCase struct {
	name     string
	prog     string
	activate func(Config) func(*Sim) error
}

// mixedMasks activates every warp, alternating a full mask with odd.
func mixedMasks(odd uint64) func(Config) func(*Sim) error {
	return func(cfg Config) func(*Sim) error {
		return func(s *Sim) error {
			for c := 0; c < cfg.Cores; c++ {
				for w := 0; w < cfg.Warps; w++ {
					tmask := uint64(0xFF)
					if w%2 == 1 {
						tmask = odd
					}
					if err := s.ActivateWarp(c, w, 0x1000, tmask); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
}

// allWarps activates every warp of every core under tmask.
func allWarps(tmask uint64) func(Config) func(*Sim) error {
	return func(cfg Config) func(*Sim) error { return activateAll(cfg, cfg.Warps, tmask) }
}

// fourWarps activates warps 0..3 of every core with four lanes, the shape
// the shared engine-harness programs are written for.
func fourWarps(cfg Config) func(*Sim) error { return activateAll(cfg, 4, 0xF) }

// diffEngines runs prog on the sequential tick engine, the oracle, and
// diffs it against the event engine at one and two workers and the tick
// engine at two workers.
func diffEngines(t *testing.T, cfg Config, prog string, activate func(*Sim) error) {
	t.Helper()
	cfg.TickEngine = true
	oracle := runSnapshot(t, cfg, prog, activate, 1)
	diffSnapshots(t, "tick/workers=2", oracle, runSnapshot(t, cfg, prog, activate, 2))
	cfg.TickEngine = false
	for _, workers := range []int{1, 2} {
		got := runSnapshot(t, cfg, prog, activate, workers)
		diffSnapshots(t, fmt.Sprintf("event/workers=%d", workers), oracle, got)
	}
}

// diffLockstep runs diffEngines on each case under every scheduler policy.
func diffLockstep(t *testing.T, cases []lockstepCase) {
	for _, tc := range cases {
		for _, pol := range SchedPolicies() {
			t.Run(fmt.Sprintf("%s/%s", tc.name, pol), func(t *testing.T) {
				cfg := DefaultConfig(2, 8, 8)
				cfg.Sched = pol
				diffEngines(t, cfg, tc.prog, tc.activate(cfg))
			})
		}
	}
}

// TestBatchMatchesUnbatchedOracle diffs lockstep compute — the uniform
// program under full, partial and per-warp-mixed thread masks — plus the
// memory and FP/divergence programs shared with the engine harness.
func TestBatchMatchesUnbatchedOracle(t *testing.T) {
	diffLockstep(t, []lockstepCase{
		{"uniform", uniformComputeProg, allWarps(0xFF)},
		{"partial-mask", uniformComputeProg, allWarps(0x55)},
		{"mixed-masks", uniformComputeProg, mixedMasks(0x0F)},
		{"mem", diffMemProg, fourWarps},
		{"fp-divergence", diffFPProg, fourWarps},
	})
}

// TestBatchMemMatchesOracle diffs lockstep loads and stores: unit-stride
// (with partial and mixed masks), strided, overlapping stores between
// warps, sub-word ops, per-warp address vectors with no common stride, and
// compute+memory mixes.
func TestBatchMemMatchesOracle(t *testing.T) {
	diffLockstep(t, []lockstepCase{
		{"unit", memUnitProg, allWarps(0xFF)},
		{"unit/partial-mask", memUnitProg, allWarps(0x55)},
		{"unit/mixed-masks", memUnitProg, mixedMasks(0x33)},
		{"strided", memStridedProg, allWarps(0xFF)},
		{"store-overlap", memOverlapProg, allWarps(0xFF)},
		{"byte-half", memByteHalfProg, allWarps(0xFF)},
		{"non-congruent", memNonCongruentProg, allWarps(0xFF)},
		{"compute-mem-mix", diffMemProg, fourWarps},
		{"compute-mem-uniform", uniformComputeProg, allWarps(0xFF)},
	})
}

// TestBatchMemMSHRBound reruns the strided program with two MSHRs per
// cache: eight lockstep warps each missing on eight lines keep the
// structural LSU/MSHR gate saturated, and it must stall each warp at the
// same cycle under every engine and worker count.
func TestBatchMemMSHRBound(t *testing.T) {
	for _, pol := range SchedPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := DefaultConfig(2, 8, 8)
			cfg.Sched = pol
			cfg.Mem.L1.MSHRs = 2
			cfg.Mem.L2.MSHRs = 2
			diffEngines(t, cfg, memStridedProg, activateAll(cfg, cfg.Warps, 0xFF))
		})
	}
}
