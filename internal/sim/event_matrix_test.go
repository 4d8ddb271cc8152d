package sim_test

// Kernel-level half of the engine differential harness: registry kernels,
// run end-to-end through the OpenCL-style runtime, across the engine x
// workers matrix. The event-driven device engine (the default) must produce
// byte-identical launch reports — including the MemStall/ExecStall/
// IdleAfterEnd attribution — and memory-system state to the legacy tick
// loop retained behind Config.TickEngine, on both the sequential and the
// parallel runner. The CI race-detector step runs this file, so the
// per-worker wake queues and defer lists are also race-checked on every
// kernel.
//
// internal/sim/event_test.go pins the same property at the bare-simulator
// level (including deadlocks, the deadline and the observer stream);
// internal/sweep pins it at sweep-record level.

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

func runEngineKernel(t *testing.T, name string, tick bool, workers int) kernelRun {
	t.Helper()
	cfg := sim.DefaultConfig(4, 8, 8)
	cfg.TickEngine = tick
	cfg.Workers = workers
	return runMatrixKernelCfg(t, name, cfg, fmt.Sprintf("tick=%v workers=%d", tick, workers))
}

// engineMatrixKernels get the full tick x workers matrix; every other
// registry kernel runs the oracle-critical tick-seq vs event-seq/par cells
// only, keeping the harness exhaustive on kernels at bounded cost.
var engineMatrixKernels = map[string]bool{"vecadd": true, "relu": true, "saxpy": true}

func TestEventEngineKernelMatrix(t *testing.T) {
	for _, name := range kernels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && !engineMatrixKernels[name] {
				t.Skip("short mode: engine matrix runs the cheap kernels only")
			}
			oracle := runEngineKernel(t, name, true, 1)
			eventSeq := runEngineKernel(t, name, false, 1)
			eventPar := runEngineKernel(t, name, false, 4)
			diffKernelRuns(t, name+"/tick-seq-vs-event-seq", oracle, eventSeq)
			diffKernelRuns(t, name+"/tick-seq-vs-event-par", oracle, eventPar)
			if engineMatrixKernels[name] {
				tickPar := runEngineKernel(t, name, true, 4)
				diffKernelRuns(t, name+"/tick-seq-vs-tick-par", oracle, tickPar)
			}
		})
	}
}
