package sim_test

// Kernel-level half of the bank x channel determinism harness: every
// registry kernel, run end-to-end through the OpenCL-style runtime on a
// multi-core device, must produce byte-identical launch reports and
// memory-system state on the parallel engine (deferred misses committed at
// the end of each cycle) as on the sequential engine — across a {1,2,4,8}
// bank x {1,2,4} channel matrix. The CI race-detector step runs this file,
// so the issue workers are also checked for data races on every
// configuration.
//
// internal/sim/parallel_test.go pins the same property at the
// bare-simulator level (including the L2-disabled bypass);
// internal/mem/commit_test.go pins banked-vs-monolithic L2 equivalence at
// the memory-system level.

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/ocl"
	"repro/internal/sim"
)

// matrixCell is one memory-geometry point of the differential matrix.
type matrixCell struct{ banks, channels int }

func fullMatrix() []matrixCell {
	var cells []matrixCell
	for _, b := range []int{1, 2, 4, 8} {
		for _, ch := range []int{1, 2, 4} {
			cells = append(cells, matrixCell{b, ch})
		}
	}
	return cells
}

// diagMatrix is the reduced matrix used for the expensive kernels (and for
// every kernel under -short): the corners plus the mixed midpoint.
func diagMatrix() []matrixCell {
	return []matrixCell{{1, 1}, {4, 2}, {8, 4}}
}

// kernelRun is everything a launch sequence exposes, plus the final
// memory-system state down to individual banks and channels.
type kernelRun struct {
	launches []*ocl.LaunchResult
	banks    []mem.CacheStats
	channels []mem.DRAMStats
}

func runMatrixKernel(t *testing.T, name string, cell matrixCell, workers int) kernelRun {
	t.Helper()
	cfg := sim.DefaultConfig(4, 4, 8)
	cfg.Mem.L2Banks = cell.banks
	cfg.Mem.DRAM.Channels = cell.channels
	cfg.Workers = workers
	return runMatrixKernelCfg(t, name, cfg, fmt.Sprintf("%+v workers=%d", cell, workers))
}

// runMatrixKernelCfg runs one registry kernel end-to-end on an explicit
// configuration — the shared body of the bank x channel and sched x engine
// matrices.
func runMatrixKernelCfg(t *testing.T, name string, cfg sim.Config, label string) kernelRun {
	t.Helper()
	spec, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ocl.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Build(d, kernels.Params{Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunVerified(d, 0)
	if err != nil {
		t.Fatalf("%s %s: %v", name, label, err)
	}
	h := d.Sim().Hierarchy()
	run := kernelRun{launches: res.Launches}
	for b := 0; b < h.L2Banks(); b++ {
		run.banks = append(run.banks, h.L2BankStats(b))
	}
	for ch := 0; ch < h.DRAMChannels(); ch++ {
		run.channels = append(run.channels, h.DRAMChannelStats(ch))
	}
	return run
}

func diffKernelRuns(t *testing.T, name string, seq, par kernelRun) {
	t.Helper()
	if len(seq.launches) != len(par.launches) {
		t.Fatalf("%s: launch count differs: %d vs %d", name, len(seq.launches), len(par.launches))
	}
	for i := range seq.launches {
		a, b := seq.launches[i], par.launches[i]
		if a.SimCycles != b.SimCycles {
			t.Errorf("%s launch %d: cycles %d vs %d", name, i, a.SimCycles, b.SimCycles)
		}
		if a.Stats != b.Stats {
			t.Errorf("%s launch %d: core stats differ:\nseq %+v\npar %+v", name, i, a.Stats, b.Stats)
		}
		if a.L1 != b.L1 {
			t.Errorf("%s launch %d: L1 stats differ:\nseq %+v\npar %+v", name, i, a.L1, b.L1)
		}
		if a.L2 != b.L2 {
			t.Errorf("%s launch %d: L2 stats differ:\nseq %+v\npar %+v", name, i, a.L2, b.L2)
		}
		if a.DRAM != b.DRAM {
			t.Errorf("%s launch %d: DRAM stats differ:\nseq %+v\npar %+v", name, i, a.DRAM, b.DRAM)
		}
	}
	for b := range seq.banks {
		if seq.banks[b] != par.banks[b] {
			t.Errorf("%s: L2 bank %d stats differ:\nseq %+v\npar %+v", name, b, seq.banks[b], par.banks[b])
		}
	}
	for ch := range seq.channels {
		if seq.channels[ch] != par.channels[ch] {
			t.Errorf("%s: DRAM channel %d stats differ:\nseq %+v\npar %+v", name, ch, seq.channels[ch], par.channels[ch])
		}
	}
}

// cheapMatrixKernels get the full 12-cell matrix; every other registry
// kernel runs the diagonal, keeping the harness exhaustive on geometry
// where runs are fast and exhaustive on kernels everywhere.
var cheapMatrixKernels = map[string]bool{"vecadd": true, "relu": true, "saxpy": true}

// TestParallelShardedCommitKernelMatrix diffs the parallel engine against
// the sequential engine over the bank x channel matrix, which
// TestEventEngineKernelMatrix (default geometry only) does not cover.
func TestParallelShardedCommitKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cells := diagMatrix()
			if cheapMatrixKernels[name] && !testing.Short() {
				cells = fullMatrix()
			}
			for _, cell := range cells {
				label := fmt.Sprintf("%s/banks=%d/channels=%d", name, cell.banks, cell.channels)
				seq := runMatrixKernel(t, name, cell, 1)
				par := runMatrixKernel(t, name, cell, 4)
				diffKernelRuns(t, label, seq, par)
			}
		})
	}
}
