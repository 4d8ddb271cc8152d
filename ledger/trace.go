package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/ocl"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// span is one timed call into a layer. The spans of one task share the
// task's grid index, which the trace file prints as the task key.
type span struct {
	name       string
	task       int // grid index; -1 for campaign-level spans
	parent     int // index in the same worker's slice; -1 for a root
	start, end time.Duration
}

// tracer keeps spans in memory, one slice per worker so recording takes no
// lock; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans [][]span
}

func (tr *tracer) begin(w int, name string, task, parent int) int {
	tr.spans[w] = append(tr.spans[w], span{name: name, task: task, parent: parent, start: time.Since(tr.epoch)})
	return len(tr.spans[w]) - 1
}

func (tr *tracer) end(w, i int) { tr.spans[w][i].end = time.Since(tr.epoch) }

// counts are the deterministic simulator and memory counters of one task,
// summed over its launches (ocl.LaunchResult).
type counts struct {
	SimCycles, Issued, LaneOps, LaneSlots  uint64
	MemStall, ExecStall, LineRequests      uint64
	L1Accesses, L1Hits, L2Accesses, L2Hits uint64
	DRAMLines, DRAMBusy                    uint64
}

func (c *counts) add(o counts) {
	a, b := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetUint(a.Field(i).Uint() + b.Field(i).Uint())
	}
}

func countsOf(res *kernels.Result, threads int) counts {
	var c counts
	for _, l := range res.Launches {
		c.add(counts{
			SimCycles: l.SimCycles, Issued: l.Stats.Issued, LaneOps: l.Stats.LaneOps,
			LaneSlots: l.Stats.Issued * uint64(threads),
			MemStall:  l.Stats.MemStall, ExecStall: l.Stats.ExecStall, LineRequests: l.Stats.LineRequests,
			L1Accesses: l.L1.Accesses, L1Hits: l.L1.Hits, L2Accesses: l.L2.Accesses, L2Hits: l.L2.Hits,
			DRAMLines: l.DRAM.LineReads + l.DRAM.Writebacks, DRAMBusy: l.DRAM.BusyCycles,
		})
	}
	return c
}

// tracedPass is the outcome of one traced campaign pass.
type tracedPass struct {
	records           []sweep.Record
	counts            []counts
	wall              time.Duration
	pool, prog, input ocl.CacheCounters
	gcCount           uint32
	gcPause           time.Duration
}

// runTracedPass drives the campaign through the layers' public calls —
// TaskGrid, DevicePool.Get/Put, Spec.Build, Case.Run, Case.Verify and
// CheckpointWriter.Append — with sweep.Run's worker structure, timing each
// call. Its records must equal sweep.Run's one for one.
func runTracedPass(opts sweep.Options, tr *tracer) (tracedPass, error) {
	var tp tracedPass
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	coldStart()
	g := tr.begin(0, "sweep.task_grid", -1, -1)
	tasks, err := sweep.TaskGrid(opts)
	tr.end(0, g)
	if err != nil {
		return tp, err
	}
	opts = opts.Normalized()
	ckpt, err := sweep.OpenCheckpoint(opts.Checkpoint, false, opts)
	if err != nil {
		return tp, err
	}
	pool := ocl.NewDevicePool(opts.Workers)
	tp.records = make([]sweep.Record, len(tasks))
	tp.counts = make([]counts, len(tasks))
	var mu sync.Mutex
	var sinkErr error
	var wg sync.WaitGroup
	ch := make(chan sweep.Task)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				ts := tr.begin(w, "sweep.task", t.Index, -1)
				rec, c := tracedTask(opts, pool, t, tr, w, ts)
				tp.records[t.Index], tp.counts[t.Index] = rec, c
				mu.Lock()
				if rec.Err == "" {
					a := tr.begin(w, "sweep.checkpoint.append", t.Index, ts)
					if err := ckpt.Append(rec); err != nil && sinkErr == nil {
						sinkErr = err
					}
					tr.end(w, a)
				}
				mu.Unlock()
				tr.end(w, ts)
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	if err := ckpt.Close(); err != nil && sinkErr == nil {
		sinkErr = err
	}
	tp.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	tp.gcCount = m1.NumGC - m0.NumGC
	tp.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	tp.pool = pool.Stats()
	tp.prog = ocl.ProgramCacheStats() // zeroed by coldStart
	tp.input = kernels.InputCacheStats()
	return tp, sinkErr
}

// tracedTask is sweep's runOne for the options this benchmark sets, with a
// span around each layer call. Error strings match runOne's.
func tracedTask(opts sweep.Options, pool *ocl.DevicePool, t sweep.Task, tr *tracer, w, parent int) (sweep.Record, counts) {
	rec := sweep.Record{Config: t.Config, Kernel: t.Kernel, Mapper: t.Mapper.Name(), Sched: t.Sched.String(),
		MSHRs: t.MSHRs, L1: t.L1, Prefetch: t.Prefetch.String()}
	fail := func(err error) (sweep.Record, counts) {
		rec.Err = err.Error()
		return rec, counts{}
	}
	spec, err := kernels.ByName(t.Kernel)
	if err != nil {
		return fail(err)
	}
	cfg := sim.DefaultConfig(t.Config.Cores, t.Config.Warps, t.Config.Threads)
	cfg.Sched = t.Sched
	cfg.Mem.L1.MSHRs, cfg.Mem.L2.MSHRs = t.MSHRs, t.MSHRs
	size, ways, err := mem.ParseL1Geometry(t.L1)
	if err != nil {
		return fail(err)
	}
	cfg.Mem.L1.SizeBytes, cfg.Mem.L1.Ways = size, ways
	cfg.Mem.Prefetch = t.Prefetch
	cfg.Workers = opts.SimWorkers

	s := tr.begin(w, "ocl.pool.get", t.Index, parent)
	d, err := pool.Get(cfg)
	tr.end(w, s)
	if err != nil {
		return fail(err)
	}
	defer pool.Put(d)
	if opts.DispatchOverhead >= 0 {
		d.DispatchOverhead = uint64(opts.DispatchOverhead)
	}
	d.SetMapper(t.Mapper)

	s = tr.begin(w, "kernels.build", t.Index, parent)
	c, err := spec.Build(d, kernels.Params{Scale: opts.Scale, Seed: opts.Seed})
	tr.end(w, s)
	if err != nil {
		return fail(err)
	}
	s = tr.begin(w, "ocl.launch", t.Index, parent)
	res, err := c.Run(d, 0)
	tr.end(w, s)
	if err != nil {
		return fail(err)
	}
	s = tr.begin(w, "kernels.verify", t.Index, parent)
	err = c.Verify(d)
	tr.end(w, s)
	if err != nil {
		return fail(fmt.Errorf("kernels: %s: %w", c.Name, err))
	}
	if len(res.Launches) == 0 {
		return fail(fmt.Errorf("case completed without launches"))
	}
	rec.Cycles = res.Cycles
	rec.LWS = res.Launches[0].LWS
	for _, l := range res.Launches {
		rec.Instrs += l.Stats.Issued
		rec.MemStall += l.Stats.MemStall
		rec.ExecStall += l.Stats.ExecStall
		rec.EnergyPJ += l.Energy.Total()
	}
	rec.Boundedness = core.Classify(rec.MemStall, rec.ExecStall, rec.Cycles*uint64(t.Config.Cores))
	return rec, countsOf(res, t.Config.Threads)
}

// runTraced alternates untraced sweep.Run passes with traced passes after
// one warm-up pass until the window is spent, checks that both give the
// same records, and reports the per-layer metrics. Span times are host
// seconds as measured, not scaled; host.probe_s gives the host speed they
// were measured at.
func runTraced(l *ledger, name string, opts sweep.Options, window time.Duration, outDir string, probe *hostProbe) ([]sweep.Record, error) {
	warm, err := runPass(opts)
	if err != nil {
		return nil, err
	}
	l.count(warm.records)
	want := digest(warm.records)
	tr := &tracer{epoch: time.Now(), spans: make([][]span, opts.Workers)}
	var untraced, traced []float64
	var tps []tracedPass
	var wantCounts string
	for start := time.Now(); len(tps) == 0 || time.Since(start) < window; {
		p, err := runPass(opts)
		if err != nil {
			return nil, err
		}
		l.count(p.records)
		untraced = append(untraced, p.wall.Seconds())
		if d := digest(p.records); d != want {
			l.problem("untraced records digest %s differs from the first pass's %s", d, want)
		}
		tp, err := runTracedPass(opts, tr)
		if err != nil {
			return nil, err
		}
		l.count(tp.records)
		traced = append(traced, tp.wall.Seconds())
		if !reflect.DeepEqual(tp.records, warm.records) {
			l.problem("traced records differ from sweep.Run's (digest %s vs %s)", digest(tp.records), want)
		}
		if err := checkCheckpoint(opts.Checkpoint, tp.records); err != nil {
			l.problem("traced %v", err)
		}
		dc := digest(tp.counts)
		if wantCounts == "" {
			wantCounts = dc
		} else if dc != wantCounts {
			l.problem("sim/mem counters digest %s differs from the first traced pass's %s", dc, wantCounts)
		}
		tps = append(tps, tp)
		if _, err := probe.measure(); err != nil {
			return nil, err
		}
	}
	fmt.Printf("ledger: %d untraced and %d traced passes; sim/mem counters digest sha256:%s\n", len(untraced), len(tps), wantCounts)
	layerMetrics(l, tr, tps, warm.records)
	l.put("trace.overhead_frac", median(traced)/median(untraced)-1, "ratio")
	l.put("host.probe_s", median(probe.all), "s")
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s.json", name))
	if err := writeTrace(path, tr, tps[0].records); err != nil {
		return nil, err
	}
	fmt.Println("ledger: spans written to", path)
	return warm.records, nil
}

// layerMetrics derives the per-layer metrics from the spans and counters of
// the traced passes.
func layerMetrics(l *ledger, tr *tracer, tps []tracedPass, recs []sweep.Record) {
	byName := map[string][]float64{}
	var self []float64
	for _, spans := range tr.spans {
		child := make([]time.Duration, len(spans))
		for _, s := range spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range spans {
			byName[s.name] = append(byName[s.name], (s.end - s.start).Seconds())
			if s.name == "sweep.task" {
				self = append(self, (s.end - s.start - child[i]).Seconds())
			}
		}
	}
	tasks := byName["sweep.task"]
	sort.Float64s(tasks)
	l.put("sweep.task_s_p50", quantile(tasks, 0.50), "s")
	l.put("sweep.task_s_p99", quantile(tasks, 0.99), "s")
	l.put("sweep.self_s", mean(self), "s")
	for _, n := range []string{"ocl.pool.get", "kernels.build", "ocl.launch", "kernels.verify", "sweep.checkpoint.append"} {
		l.put(n+"_s", mean(byName[n]), "s")
	}

	var pool, prog, input ocl.CacheCounters
	var gcCount uint32
	var gcPause time.Duration
	for _, tp := range tps {
		pool.Hits, pool.Misses = pool.Hits+tp.pool.Hits, pool.Misses+tp.pool.Misses
		prog.Hits, prog.Misses = prog.Hits+tp.prog.Hits, prog.Misses+tp.prog.Misses
		input.Hits, input.Misses = input.Hits+tp.input.Hits, input.Misses+tp.input.Misses
		gcCount += tp.gcCount
		gcPause += tp.gcPause
	}
	l.put("ocl.pool.hit_ratio", ratio(pool.Hits, pool.Hits+pool.Misses), "ratio")
	l.put("ocl.progcache.hit_ratio", ratio(prog.Hits, prog.Hits+prog.Misses), "ratio")
	l.put("kernels.input_memo.hit_ratio", ratio(input.Hits, input.Hits+input.Misses), "ratio")
	l.put("go.gc_count", float64(gcCount)/float64(len(tps)), "count")
	l.put("go.gc_pause_s", gcPause.Seconds()/float64(len(tps)), "s")

	var c counts
	for _, tc := range tps[0].counts {
		c.add(tc)
	}
	launch := 0.0
	for _, v := range byName["ocl.launch"] {
		launch += v
	}
	launchNs := launch * 1e9 / float64(len(tps))
	l.put("ocl.launch.host_ns_per_instr", launchNs/float64(c.Issued), "ns")
	l.put("ocl.launch.host_ns_per_cycle", launchNs/float64(c.SimCycles), "ns")
	l.put("sim.device_cycles", float64(c.SimCycles), "count")
	l.put("sim.issued", float64(c.Issued), "count")
	l.put("sim.ipc", ratio(c.Issued, c.SimCycles), "ratio")
	l.put("sim.lane_util", ratio(c.LaneOps, c.LaneSlots), "ratio")
	l.put("sim.mem_stall_cycles", float64(c.MemStall), "count")
	l.put("sim.exec_stall_cycles", float64(c.ExecStall), "count")
	l.put("sim.line_requests", float64(c.LineRequests), "count")
	l.put("mem.l1.accesses", float64(c.L1Accesses), "count")
	l.put("mem.l1.hit_ratio", ratio(c.L1Hits, c.L1Accesses), "ratio")
	l.put("mem.l2.accesses", float64(c.L2Accesses), "count")
	l.put("mem.l2.hit_ratio", ratio(c.L2Hits, c.L2Accesses), "ratio")
	l.put("mem.dram.lines", float64(c.DRAMLines), "count")
	l.put("mem.dram.busy_cycles", float64(c.DRAMBusy), "count")
	vsNaive, vsFixed := speedups(recs)
	l.put("core.speedup_vs_naive", vsNaive, "x")
	l.put("core.speedup_vs_fixed32", vsFixed, "x")
}

// writeTrace writes the spans in the Chrome trace-event format (viewable in
// Perfetto or chrome://tracing), one thread per sweep worker.
func writeTrace(path string, tr *tracer, recs []sweep.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var events []event
	for w, spans := range tr.spans {
		for _, s := range spans {
			e := event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: w}
			if s.task >= 0 {
				e.Args = map[string]string{"task": recs[s.task].Key()}
				if s.parent >= 0 {
					e.Args["parent"] = spans[s.parent].name
				}
			}
			events = append(events, e)
		}
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quantile returns the nearest-rank q-quantile of sorted v.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
