package ocl

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// LaunchResult reports one completed NDRange execution.
type LaunchResult struct {
	Kernel  string
	GWS     int
	LWS     int
	Tasks   int // workgroups = ceil(gws/lws)
	Batches int // sequential rounds of tasks over hp slots
	Regime  core.Regime

	Cycles         uint64 // SimCycles + dispatch overhead
	SimCycles      uint64
	WarpsActivated int

	Stats       sim.CoreStats  // launch-delta pipeline counters
	L1          mem.CacheStats // launch-delta, summed over cores
	L2          mem.CacheStats
	DRAM        mem.DRAMStats
	Boundedness core.Boundedness
	// Energy is the launch's estimated consumption under the default
	// sim.EnergyModel (picojoules; relative comparisons only).
	Energy sim.EnergyBreakdown
}

// wrapperTemplate is the Vortex-style spawn wrapper generated around every
// kernel body. Constants are provided as assembler defines:
//
//	NTASKS   workgroups in the NDRange
//	TPC      tasks per core (contiguous chunk, ceil(NTASKS/cores))
//	TPW      threads per warp
//	WT       warps x threads (per-core slot count = grid stride)
//	GWS, LWS NDRange geometry
//	ARGBASE  argument block address
//
// Each hardware thread slot computes its first workgroup id, then loops:
// for each owned workgroup, iterate the lws work items, calling the body
// with a0=gid, a1=ARGBASE. Per-thread bounds are handled with the
// ballot/split/join idiom so divergent tails reconverge.
const wrapperHead = `
.tag spawn
__entry:
	csrr s0, cid
	csrr s1, wid
	csrr s2, tid
	li   t0, TPC
	mul  s3, s0, t0      # start = cid*TPC
	li   t1, TPW
	mul  s4, s1, t1      # wid*threads
	add  s4, s4, s2      # + tid = local slot
	add  s4, s4, s3      # wg = start + local slot
	add  s3, s3, t0      # end = start + TPC ...
	li   t2, NTASKS
	ble  s3, t2, __endok # ... clamped to NTASKS
	mv   s3, t2
__endok:
	li   s5, WT
	li   s7, GWS
	li   s9, LWS
	li   s11, ARGBASE
.tag wgloop
__wgloop:
	slt  t0, s4, s3      # this lane still owns a workgroup?
	vx_ballot t1, t0
	beqz t1, __wexit
	vx_split t0
	beqz t0, __wskip
	# POCL-style workgroup launcher prologue: reload the kernel context
	# and derive the group's grid coordinates (integer divisions, as the
	# pocl workgroup function does). This is the per-workgroup software
	# cost that makes very small lws expensive (Fig. 1, lws=1).
	lw   t3, 0(s11)      # touch the kernel context
	li   t5, 16
	divu t6, s4, t5      # group row (fake 2-D decomposition)
	remu t5, s4, t5      # group col
	li   t2, 16
	mul  t6, t6, t2
	add  t6, t6, t5      # == wg
	mul  s10, t6, s9     # first gid of the workgroup
	li   s8, 0           # l = 0
.tag localloop
__lloop:
	slt  t0, s8, s9      # l < lws
	add  a0, s10, s8     # gid = wg*lws + l
	slt  t2, a0, s7      # gid < gws
	and  t0, t0, t2
	vx_ballot t1, t0
	beqz t1, __lexit
	vx_split t0
	beqz t0, __lskip
	mv   a1, s11
.tag body
`

const wrapperTail = `
.tag localloop
__lskip:
	vx_join
	addi s8, s8, 1
	j __lloop
__lexit:
.tag wgloop
__wskip:
	vx_join
	add  s4, s4, s5      # wg += warps*threads (grid stride within core)
	j __wgloop
__wexit:
.tag exit
	ecall
`

// buildProgram returns the assembled wrapper+body for one launch shape,
// consulting the process-wide content-keyed program cache: the assembler
// runs once per distinct (kernel, geometry) shape instead of once per
// launch. Cached Programs are immutable and shared across devices.
func buildProgram(k *Kernel, gws, lws, ntasks, tpc int, cfg sim.Config) (*asm.Program, error) {
	defs := map[string]int64{
		"NTASKS":  int64(ntasks),
		"TPC":     int64(tpc),
		"TPW":     int64(cfg.Threads),
		"WT":      int64(cfg.Warps * cfg.Threads),
		"GWS":     int64(gws),
		"LWS":     int64(lws),
		"ARGBASE": int64(ArgBase),
	}
	for name, v := range k.src.Defs {
		if _, dup := defs[name]; dup {
			return nil, fmt.Errorf("ocl: kernel %q redefines reserved symbol %q", k.src.Name, name)
		}
		defs[name] = v
	}
	key := progKey{name: k.src.Name, body: asm.SourceKey(k.src.Body, CodeBase, nil), defs: defsKey(defs)}
	return programCache.GetOrBuild(key, func() (*asm.Program, error) {
		src := wrapperHead + k.src.Body + wrapperTail
		prog, err := asm.Assemble(src, CodeBase, defs)
		if err != nil {
			return nil, fmt.Errorf("ocl: kernel %q: %w", k.src.Name, err)
		}
		return prog, nil
	})
}

// currentProgram is set during a launch so trace collectors can tag PCs.
func (d *Device) currentTagAt(pc uint32) string {
	if d.currentProg == nil {
		return ""
	}
	return d.currentProg.TagAt(pc)
}

// EnableTracing installs a trace collector whose records are tagged with
// the generated program's semantic sections. Tracing slows simulation and
// should be enabled only for trace experiments (Figure 1).
func (d *Device) EnableTracing() *trace.Collector {
	col := trace.NewCollector(d.currentTagAt)
	d.SetObserver(col.Observe)
	return col
}

// DisableTracing removes any installed observer.
func (d *Device) DisableTracing() { d.SetObserver(nil) }

// EnqueueNDRange runs kernel k over gws work items. lws=0 delegates the
// choice to the device's mapper (core.Auto by default — the paper's
// technique); any positive lws is honored as-is, like the OpenCL host API.
// The call is synchronous: it returns when every warp has retired.
func (d *Device) EnqueueNDRange(k *Kernel, gws, lws int) (*LaunchResult, error) {
	if gws <= 0 {
		return nil, fmt.Errorf("ocl: gws %d must be positive", gws)
	}
	info := d.Info()
	if lws == 0 {
		lws = d.mapper.LWS(gws, info)
	}
	if lws < 1 {
		return nil, fmt.Errorf("ocl: lws %d must be positive (or 0 for auto)", lws)
	}

	ntasks := core.Tasks(gws, lws)
	tpc := (ntasks + d.cfg.Cores - 1) / d.cfg.Cores

	prog, err := buildProgram(k, gws, lws, ntasks, tpc, d.cfg)
	if err != nil {
		return nil, err
	}
	if prog.End() > ArgBase {
		return nil, fmt.Errorf("ocl: kernel %q program too large (%d bytes)", k.src.Name, prog.Size())
	}
	d.currentProg = prog
	if err := d.sim.LoadProgram(prog.Base, prog.Insts); err != nil {
		return nil, err
	}

	// Write the argument block.
	for i, a := range k.args {
		if !d.memory.Write32(ArgBase+uint32(i)*4, a.word) {
			return nil, fmt.Errorf("ocl: argument block write failed")
		}
	}

	// Activate warps: contiguous task chunks per core, threads first.
	entry, ok := prog.Symbols["__entry"]
	if !ok {
		return nil, fmt.Errorf("ocl: wrapper entry symbol missing")
	}
	warpsActivated := 0
	wt := d.cfg.Warps * d.cfg.Threads
	for c := 0; c < d.cfg.Cores; c++ {
		tasksHere := ntasks - c*tpc
		if tasksHere <= 0 {
			break
		}
		if tasksHere > tpc {
			tasksHere = tpc
		}
		slots := tasksHere
		if slots > wt {
			slots = wt
		}
		for w := 0; w*d.cfg.Threads < slots; w++ {
			lanes := slots - w*d.cfg.Threads
			if lanes > d.cfg.Threads {
				lanes = d.cfg.Threads
			}
			mask := (uint64(1) << uint(lanes)) - 1
			if err := d.sim.ActivateWarp(c, w, entry, mask); err != nil {
				return nil, err
			}
			warpsActivated++
		}
	}

	// Snapshot counters, run, and diff.
	startCycle := d.sim.Cycle()
	startStats := d.sim.TotalStats()
	startL1 := d.hier.TotalL1Stats()
	startL2 := d.hier.L2Stats()
	startDRAM := d.hier.DRAM()

	if err := d.sim.Run(); err != nil {
		return nil, d.annotateTrap(err, prog)
	}

	res := &LaunchResult{
		Kernel:         k.src.Name,
		GWS:            gws,
		LWS:            lws,
		Tasks:          ntasks,
		Batches:        core.Batches(gws, lws, info),
		Regime:         core.RegimeOf(gws, lws, info),
		SimCycles:      d.sim.Cycle() - startCycle,
		WarpsActivated: warpsActivated,
		Stats:          diffCoreStats(d.sim.TotalStats(), startStats),
		L1:             diffCacheStats(d.hier.TotalL1Stats(), startL1),
		L2:             diffCacheStats(d.hier.L2Stats(), startL2),
	}
	res.Cycles = res.SimCycles + d.DispatchOverhead
	dram := d.hier.DRAM()
	res.DRAM = mem.DRAMStats{
		LineReads:  dram.LineReads - startDRAM.LineReads,
		Writebacks: dram.Writebacks - startDRAM.Writebacks,
		BusyCycles: dram.BusyCycles - startDRAM.BusyCycles,
	}
	res.Boundedness = core.Classify(res.Stats.MemStall, res.Stats.ExecStall, res.SimCycles*uint64(d.cfg.Cores))
	res.Energy = sim.DefaultEnergyModel().EstimateEnergy(
		res.Stats, res.L1.Accesses, res.L2.Accesses,
		res.DRAM.LineReads+res.DRAM.Writebacks,
		res.SimCycles*uint64(d.cfg.Cores), nil)
	return res, nil
}

// annotateTrap attaches source context to simulator traps.
func (d *Device) annotateTrap(err error, prog *asm.Program) error {
	if t, ok := err.(*sim.Trap); ok {
		if src := prog.SourceAt(t.PC); src != "" {
			return fmt.Errorf("%w\n  at: %s", err, strings.TrimSpace(src))
		}
	}
	return err
}

func diffCoreStats(a, b sim.CoreStats) sim.CoreStats {
	return sim.CoreStats{
		Issued:       a.Issued - b.Issued,
		LaneOps:      a.LaneOps - b.LaneOps,
		Loads:        a.Loads - b.Loads,
		Stores:       a.Stores - b.Stores,
		LineRequests: a.LineRequests - b.LineRequests,
		MemStall:     a.MemStall - b.MemStall,
		ExecStall:    a.ExecStall - b.ExecStall,
		IdleAfterEnd: a.IdleAfterEnd - b.IdleAfterEnd,
	}
}

func diffCacheStats(a, b mem.CacheStats) mem.CacheStats {
	return mem.CacheStats{
		Accesses:       a.Accesses - b.Accesses,
		Hits:           a.Hits - b.Hits,
		Misses:         a.Misses - b.Misses,
		Writebacks:     a.Writebacks - b.Writebacks,
		PrefetchIssued: a.PrefetchIssued - b.PrefetchIssued,
		PrefetchHits:   a.PrefetchHits - b.PrefetchHits,
	}
}
