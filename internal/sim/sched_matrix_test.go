package sim_test

// Kernel-level half of the scheduler differential harness: registry
// kernels, run end-to-end through the OpenCL-style runtime, across the
// sched x engine matrix. For the rr and gto policies the
// ready-set/wake-heap engine must produce byte-identical launch reports
// and memory-system state to the legacy scan oracle (Config.ScanSched), on
// both the sequential and the parallel engine; the heap-only policies
// (oldest, 2lev) are pinned sequential-vs-parallel. The CI race-detector
// step runs this file, so the heap transitions are also race-checked under
// the parallel engine on every policy.
//
// internal/sim/sched_test.go pins the same property at the bare-simulator
// level (including the stall-attribution fold); internal/sweep pins it at
// sweep-record level.

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

func runSchedKernel(t *testing.T, name string, sched sim.SchedPolicy, scan bool, workers int) kernelRun {
	t.Helper()
	cfg := sim.DefaultConfig(4, 8, 8)
	cfg.Sched = sched
	cfg.ScanSched = scan
	cfg.Workers = workers
	return runMatrixKernelCfg(t, name, cfg, fmt.Sprintf("%s scan=%v", sched, scan))
}

// schedMatrixKernels get the full policy set; every other registry kernel
// runs the oracle-critical rr/gto cells only, keeping the harness
// exhaustive on kernels where it matters most and fast everywhere.
var schedMatrixKernels = map[string]bool{"vecadd": true, "relu": true, "saxpy": true}

func TestSchedulerKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, sched := range sim.SchedPolicies() {
				hasOracle := sched == sim.SchedRoundRobin || sched == sim.SchedGTO
				if !hasOracle && !schedMatrixKernels[name] {
					continue
				}
				if testing.Short() && sched != sim.SchedRoundRobin && !schedMatrixKernels[name] {
					continue
				}
				label := fmt.Sprintf("%s/%s", name, sched)
				seq := runSchedKernel(t, name, sched, false, 1)
				par := runSchedKernel(t, name, sched, false, 4)
				diffKernelRuns(t, label+"/seq-vs-par", seq, par)
				if hasOracle {
					oracle := runSchedKernel(t, name, sched, true, 1)
					diffKernelRuns(t, label+"/heap-vs-scan", oracle, seq)
					oraclePar := runSchedKernel(t, name, sched, true, 4)
					diffKernelRuns(t, label+"/scan-seq-vs-scan-par", oracle, oraclePar)
				}
			}
		})
	}
}
