// Command ledger is the campaign benchmark of this repository. It runs one
// workload — a seeded Figure 2 campaign — through sweep.Run exactly as
// vortex-sweep does (Verify on, a checkpoint file), checks every record, and
// prints the end-to-end metrics as the last line of standard output. Its
// times are scaled to a reference host speed by a probe that runs between
// passes (hostspeed.go). With -trace 1 it instead replays the same task grid
// through the public layer calls (trace.go), times each call as a span, and
// prints the per-layer metrics.
//
//	go run . -workload fig2-stream -seed 1 -seconds 10 -trace 0
//
// See README.md for the metrics, the workloads and how to read them.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ocl"
	"repro/internal/sweep"
)

// workload is one seeded Figure 2 campaign under the paper's three mappers
// (lws=1, lws=32 and ours, sweep's default).
type workload struct {
	name    string
	kernels []string
	scale   float64
}

var workloads = []workload{
	// Short memory-streaming tasks: per-task host overhead (pool, build,
	// program cache, verify, checkpoint) is the largest share here.
	{"fig2-stream", []string{"vecadd", "relu", "saxpy"}, 0.25},
	// Compute tasks: nearly all host time is issue and execute.
	{"fig2-compute", []string{"sgemm", "gauss", "knn"}, 0.01},
}

// drawConfigs draws configurations from sweep.Grid() with the seed,
// stratified so that the work in a draw barely depends on the seed: every
// (cores, threads) pair of the grid appears once, and within one cores
// value the warp counts are a seeded permutation over the thread counts, so
// every warp count appears equally often. Cores and threads per warp set
// most of a task's host cost; an unstratified draw of this size moves
// records/s by more than the benchmark's bounds from one seed to the next.
func drawConfigs(seed int64) []core.HWInfo {
	rng := rand.New(rand.NewSource(seed))
	var out []core.HWInfo
	var row []core.HWInfo // one cores value: warps-major, threads innermost
	grid := sweep.Grid()
	for i, hw := range grid {
		row = append(row, hw)
		if i+1 < len(grid) && grid[i+1].Cores == hw.Cores {
			continue
		}
		nt := 0
		for nt < len(row) && row[nt].Warps == row[0].Warps {
			nt++
		}
		perm := rng.Perm(len(row) / nt)
		for t := 0; t < nt; t++ {
			out = append(out, row[perm[t%len(perm)]*nt+t])
		}
		row = row[:0]
	}
	return out
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger accumulates the outcome of every record the run produced and the
// reasons it is not correct.
type ledger struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func (l *ledger) put(name string, v float64, unit string) { l.metrics[name] = metric{v, unit} }

func (l *ledger) problem(format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

// count adds a pass's records to the attempted/failed totals.
func (l *ledger) count(recs []sweep.Record) {
	for _, r := range recs {
		l.attempted++
		if r.Err != "" {
			l.failed++
			if l.failed <= 3 {
				l.problem("%s failed: %s", r.Key(), r.Err)
			}
		}
	}
}

func main() {
	name := flag.String("workload", "fig2-stream", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed: drives the config draw and the kernel inputs")
	seconds := flag.Float64("seconds", 10, "measured run length in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced replica and prints per-layer metrics; 0 prints end-to-end metrics")
	outDir := flag.String("out", ".bench_build/ledger", "directory for checkpoint and trace files")
	probeWorkers := flag.Int("probe-workers", 0, "serve the host-speed probe on this many goroutines (the run starts this child itself)")
	flag.Parse()
	if *probeWorkers > 0 {
		if err := serveProbe(*probeWorkers); err != nil {
			fmt.Fprintln(os.Stderr, "ledger: probe:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err == nil && (*traced != 0 && *traced != 1) {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive")
	}
	if err == nil {
		err = os.MkdirAll(*outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}
	opts := sweep.Options{Configs: drawConfigs(*seed), Kernels: w.kernels, Scale: w.scale, Seed: *seed,
		Verify: true, Workers: runtime.NumCPU(), Checkpoint: filepath.Join(*outDir, w.name+".jsonl")}
	tasks, err := sweep.TaskGrid(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}
	fmt.Printf("ledger: workload %s seed %d: %d configs, %d tasks, %d workers, scale %g\n",
		w.name, *seed, len(opts.Configs), len(tasks), opts.Workers, opts.Scale)

	probe, err := startProbe(opts.Workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	l := &ledger{metrics: map[string]metric{}}
	window := time.Duration(*seconds * float64(time.Second))
	var recs []sweep.Record
	if *traced == 1 {
		recs, err = runTraced(l, w.name, opts, window, *outDir, probe)
	} else {
		recs, err = runUntraced(l, opts, window, probe)
	}
	if cerr := probe.close(); err == nil && cerr != nil {
		err = fmt.Errorf("host probe: %w", cerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	fmt.Printf("ledger: records digest sha256:%s (%d records, host timings excluded)\n", digest(recs), len(recs))
	printContext(recs)
	for _, p := range l.problems {
		fmt.Println("ledger: NOT CORRECT:", p)
	}
	out, err := json.Marshal(result{Correct: len(l.problems) == 0 && l.failed == 0,
		Attempted: l.attempted, Failed: l.failed, Metrics: l.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// pass is one complete campaign run from cold caches.
type pass struct {
	records    []sweep.Record
	wall       time.Duration
	firstAt    time.Duration // cold start to the first completed record
	allocBytes uint64
	peakMemMB  float64
}

// coldStart drops the process-wide program cache and input memo, so every
// pass does the work a fresh vortex-sweep process does; sweep.Run builds a
// new device pool per call.
func coldStart() {
	ocl.ResetProgramCache()
	kernels.ResetInputCache()
}

// runPass runs opts once through sweep.Run, the way vortex-sweep calls it.
func runPass(opts sweep.Options) (pass, error) {
	var p pass
	var m0, m1 runtime.MemStats
	runtime.GC() // every pass starts from a collected heap, as a fresh process does
	runtime.ReadMemStats(&m0)
	stop, peak := sampleMem()
	start := time.Now()
	coldStart()
	opts.OnRecord = func(sweep.Record) { // serialized by sweep.Run
		if p.firstAt == 0 {
			p.firstAt = time.Since(start)
		}
	}
	res, err := sweep.Run(opts)
	p.wall = time.Since(start)
	close(stop)
	p.peakMemMB = <-peak
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if res == nil {
		return p, err
	}
	p.records = res.Records
	if err != nil && failures(res.Records) == 0 {
		return p, err // not a task failure: the checkpoint could not be written
	}
	return p, nil
}

func failures(recs []sweep.Record) int {
	n := 0
	for _, r := range recs {
		if r.Err != "" {
			n++
		}
	}
	return n
}

// At least setupReps cold starts are timed per run; setup_s is their
// median. One follows every measured pass, so that they meet the host in
// the same states as the passes and the probes do, and the rest follow the
// last pass: timed together at the start of a run, their median moved by a
// fifth between two sets of ten runs. They cycle over the first
// setupConfigs configurations of the draw, the 1- and 2-core rows, where
// every warp count and every thread count appears once per row whatever the
// seed, so the set-up work barely depends on the seed.
const (
	setupReps    = 20
	setupConfigs = 10
)

// probeEvery is how much pass wall time one host probe stands for: after a
// pass the probe runs once per probeEvery of the pass, and at least once.
// One probe is a snapshot of well under a second, so a long pass needs
// several for its median to be as steady as a short pass's.
const probeEvery = 500 * time.Millisecond

// runUntraced measures the end-to-end metrics: one warm-up pass, then
// whole passes until the window is spent, each followed by host probes and
// a one-task cold start. Every time is scaled to the reference host
// by the run's median probe time (hostspeed.go). Over ten seeds the median
// steadied the rates a little more than scaling each pass by the probes on
// either side of it.
func runUntraced(l *ledger, opts sweep.Options, window time.Duration, probe *hostProbe) ([]sweep.Record, error) {
	var setups []float64
	one := opts
	one.Kernels, one.Mappers = opts.Kernels[:1], []core.Mapper{core.Auto{}}
	timeSetup := func() error {
		i := len(setups) % setupConfigs
		one.Configs = opts.Configs[i : i+1]
		p, err := runPass(one)
		if err != nil {
			return err
		}
		l.count(p.records)
		setups = append(setups, p.firstAt.Seconds())
		return nil
	}
	warm, err := runPass(opts)
	if err != nil {
		return nil, err
	}
	l.count(warm.records)
	if err := checkCheckpoint(opts.Checkpoint, warm.records); err != nil {
		l.problem("%v", err)
	}
	want := digest(warm.records)
	var passes []pass
	for start := time.Now(); len(passes) == 0 || time.Since(start) < window; {
		p, err := runPass(opts)
		if err != nil {
			return nil, err
		}
		l.count(p.records)
		if d := digest(p.records); d != want {
			l.problem("pass %d records digest %s differs from the first pass's %s", len(passes)+1, d, want)
		}
		for n := time.Duration(0); n == 0 || n*probeEvery < p.wall; n++ {
			if _, err := probe.measure(); err != nil {
				return nil, err
			}
		}
		if err := timeSetup(); err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	for len(setups) < setupReps {
		if err := timeSetup(); err != nil {
			return nil, err
		}
	}
	probeS := median(probe.all)
	var instrs, cycles uint64
	for _, r := range warm.records {
		instrs += r.Instrs
		cycles += r.Cycles
	}
	fmt.Printf("ledger: a pass is %d records, %d simulated instructions, %d simulated cycles\n", len(warm.records), instrs, cycles)
	fmt.Printf("ledger: %d measured passes; pass wall s:", len(passes))
	for _, p := range passes {
		fmt.Printf(" %.3f", p.wall.Seconds())
	}
	fmt.Printf("\nledger: pass peak mem MB:")
	for _, p := range passes {
		fmt.Printf(" %.1f", p.peakMemMB)
	}
	fmt.Printf("\nledger: %d cold starts, median %.6f s unscaled", len(setups), median(setups))
	fmt.Printf("\nledger: host probe s (reference %.3f):", probeRefS)
	for _, s := range probe.all {
		fmt.Printf(" %.3f", s)
	}
	fmt.Println()
	// Every pass's records equal the warm-up pass's (digest checked above),
	// so each pass did the same simulated work.
	var recsPS, instrsPS, cyclesPS, peaks []float64
	var alloc uint64
	for _, p := range passes {
		peaks = append(peaks, p.peakMemMB)
		s := scale(p.wall.Seconds(), probeS)
		recsPS = append(recsPS, float64(len(warm.records))/s)
		instrsPS = append(instrsPS, float64(instrs)/s)
		cyclesPS = append(cyclesPS, float64(cycles)/s)
		alloc += p.allocBytes
	}
	l.put("records_per_s", median(recsPS), "1/s")
	l.put("sim_instrs_per_s", median(instrsPS), "1/s")
	l.put("sim_cycles_per_s", median(cyclesPS), "1/s")
	l.put("setup_s", scale(median(setups), probeS), "s")
	l.put("alloc_mb_per_record", float64(alloc)/1e6/float64(len(passes)*len(warm.records)), "MB")
	l.put("peak_mem_mb", median(peaks), "MB")
	l.put("verified_frac", float64(l.attempted-l.failed)/float64(l.attempted), "ratio")
	return warm.records, nil
}

// checkCheckpoint reads the checkpoint a pass wrote back and checks that it
// holds exactly the pass's successful records.
func checkCheckpoint(path string, recs []sweep.Record) error {
	_, seen, err := sweep.ReadCheckpointFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	ok := 0
	for _, r := range recs {
		if r.Err != "" {
			continue
		}
		ok++
		if got, found := seen[r.Key()]; !found || !reflect.DeepEqual(got, r) {
			return fmt.Errorf("checkpoint: record %s missing or different", r.Key())
		}
	}
	if len(seen) != ok {
		return fmt.Errorf("checkpoint: %d records, want %d", len(seen), ok)
	}
	return nil
}

// digest hashes the records in task order. Records carry no host timings,
// so equal inputs give an equal digest on any host and in any pass.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // records and counters are plain data
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// speedups returns the mean over the records' kernels of the per-kernel
// mean cycle ratio lws=1/ours and lws=32/ours; zero when the workload runs
// only one mapper.
func speedups(recs []sweep.Record) (vsNaive, vsFixed float64) {
	sums := (&sweep.Results{Records: recs}).Summaries()
	n := 0
	for _, s := range sums {
		if s.VsNaive.N > 0 && s.VsFixed.N > 0 {
			vsNaive += s.VsNaive.Avg
			vsFixed += s.VsFixed.Avg
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return vsNaive / float64(n), vsFixed / float64(n)
}

func printContext(recs []sweep.Record) {
	fmt.Println("ledger: model validity: unvalidated — the repository holds no real-hardware reference results, so no error figure is given")
	if n, f := speedups(recs); n > 0 {
		fmt.Printf("ledger: reproduction context only: speedup of ours %.3fx vs lws=1 (paper 1.3x on math kernels), %.3fx vs lws=32 (paper 3.7x)\n", n, f)
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// memSampleEvery is how often sampleMem reads the runtime's memory.
const memSampleEvery = 2 * time.Millisecond

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/free:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

// memInUseMB is the memory the Go runtime holds from the OS and uses: all it
// has mapped, less free heap pages, whether returned to the OS or not. Free
// pages are left out because the runtime keeps them from earlier passes.
func memInUseMB() float64 {
	metrics.Read(memSamples)
	return float64(memSamples[0].Value.Uint64()-memSamples[1].Value.Uint64()-memSamples[2].Value.Uint64()) / 1e6
}

// sampleMem samples memInUseMB until stop is closed, then sends the largest
// sample on the returned channel.
func sampleMem() (stop chan struct{}, peak chan float64) {
	stop, peak = make(chan struct{}), make(chan float64, 1)
	go func() {
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		max := memInUseMB()
		for {
			select {
			case <-t.C:
				if m := memInUseMB(); m > max {
					max = m
				}
			case <-stop:
				if m := memInUseMB(); m > max {
					max = m
				}
				peak <- max
				return
			}
		}
	}()
	return stop, peak
}
