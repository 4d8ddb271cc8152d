package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// This file implements the parallel multi-core engine. One simulated device
// cycle is executed as a bulk-synchronous step:
//
//  1. Issue phase (concurrent). The cores are partitioned into contiguous
//     ranges, one per worker. Each worker scans its cores exactly like the
//     sequential engine — scheduling, scoreboards, functional execution and
//     the private L1 front end are all core-local — but the shared half of
//     every memory instruction (banked L2, DRAM) is queued in the core's
//     memDefer slot instead of being walked immediately.
//  2. Commit phase (coordinator). After a barrier, the coordinator walks
//     every queued miss through mem.Hierarchy.SharedAccess in ascending
//     core order — exactly the order in which the sequential engine
//     interleaves them at this cycle — and folds each deferred load's
//     completion into its warp's scoreboard. Completion times always lie
//     at least one cycle in the future, so deferring the patch past the
//     issue phase cannot be observed by any in-order pipeline.
//  3. The coordinator aggregates activity and wake times, advances the
//     device cycle (skipping idle gaps the same way the sequential engine
//     does, with identical stall attribution), and releases the next step.
//
// Because every shared-state mutation happens in the sequential engine's
// order, cycle counts, per-core counters, cache and per-channel DRAM
// statistics are byte-identical for kernels whose cores do not race on
// device memory (the OpenCL-style workloads in this repository never do:
// each work item writes only addresses derived from its own gid). The only
// intentional divergence is trap handling: on an execution trap the
// (cycle, core)-minimal trap is returned, as in the sequential engine, but
// same-cycle side effects of higher-numbered cores may already be visible
// and — under the event engine — stall spans still pending on other cores
// stay unsettled, so statistics after an execution trap are unspecified.
// Deadlock traps and the MaxCycles deadline are decided by the coordinator
// after a complete cycle and stay byte-identical.
//
// Both engine flavours run through this machinery: the event engine
// (event.go, the default) gives each worker a wake queue over its core
// range so an issue phase touches only due cores, while Config.TickEngine
// selects the legacy full-range scan step as the differential oracle.
//
// Synchronization is a generation-counter spin barrier: workers park in a
// Gosched loop between issue phases. Simulated cycles are far shorter than
// any channel round trip, so avoiding scheduler wakeups per cycle is what
// makes per-cycle synchronization affordable; on a single-CPU host the
// Gosched calls keep the engine live (if slow), and resolveWorkers normally
// routes such hosts to the sequential engine anyway via
// Config.Workers=NumCPU.

// parWorker is one worker's core range and per-step result slate. Each
// worker gathers the cores that deferred memory work this cycle (defers),
// so the coordinator commits the concatenation of the workers' lists
// instead of scanning every core; under the event engine it also owns the
// wake queue of its core range (q). The trailing pad keeps adjacent
// workers' hot fields on distinct cache lines.
type parWorker struct {
	lo, hi    int
	anyActive bool
	issuedAny bool
	minWake   uint64
	err       error
	q         eventQueue
	defers    []int
	_         [64]byte
}

func (s *Sim) runParallel(nw int) error {
	limit := s.cfg.MaxCycles
	if limit == 0 {
		limit = 1 << 40
	}
	deadline := s.cycle + limit

	// Cores store concurrently below; with every page backed up front, no
	// store installs a page into the shared table.
	s.memory.Materialize()
	s.par = true
	defer func() { s.par = false }()

	// A previous run that trapped may have returned before its commit
	// phase; drop any stale deferred requests so they cannot replay into
	// the shared hierarchy at the wrong time.
	for i := range s.cores {
		s.cores[i].md.active = false
	}

	ws := make([]parWorker, nw)
	tick := s.cfg.TickEngine
	for i := range ws {
		ws[i].lo = i * len(s.cores) / nw
		ws[i].hi = (i + 1) * len(s.cores) / nw
		if !tick {
			ws[i].q.init(s, ws[i].lo, ws[i].hi, s.cycle)
		}
	}

	// stepTick runs one issue phase over a worker's cores under the legacy
	// tick engine. It is the body of the sequential tick loop's per-cycle
	// core loop, minus the shared-memory walks (deferred via s.par) and
	// with results gathered per worker.
	stepTick := func(pw *parWorker) {
		pw.anyActive, pw.issuedAny = false, false
		pw.minWake = noWake
		pw.err = nil
		pw.defers = pw.defers[:0]
		for i := pw.lo; i < pw.hi; i++ {
			c := &s.cores[i]
			if c.active == 0 {
				continue
			}
			pw.anyActive = true
			if c.nextWake > s.cycle {
				if c.nextWake < pw.minWake {
					pw.minWake = c.nextWake
				}
				s.accountStall(c, 1)
				continue
			}
			issued, wake, err := s.issue(c)
			if err != nil {
				// Stop like the sequential engine stops its scan; the
				// coordinator returns the lowest-core trap of this cycle.
				pw.err = err
				return
			}
			if issued {
				pw.issuedAny = true
				c.nextWake = s.cycle + 1
				if c.md.active {
					pw.defers = append(pw.defers, i)
				}
			} else {
				c.nextWake = wake
				if wake < pw.minWake {
					pw.minWake = wake
				}
				s.accountStall(c, 1)
			}
		}
	}

	// stepEvent is the event-engine issue phase: the body of the sequential
	// event loop's due-core pass over the worker's wake queue, gathering the
	// cycle's deferred-commit cores as it goes. pw.minWake reports the
	// queue's next timed wake for the coordinator's no-issue jump.
	stepEvent := func(pw *parWorker) {
		pw.issuedAny = false
		pw.err = nil
		pw.defers = pw.defers[:0]
		q := &pw.q
		due := q.collectDue(s.cycle)
		q.running = q.running[:0]
		for _, ci := range due {
			c := &s.cores[ci]
			if c.active == 0 {
				q.live--
				continue
			}
			s.flushStall(c)
			issued, wake, err := s.issue(c)
			if err != nil {
				// Stop like the tick step stops its scan. Pending stall
				// spans of other cores stay unsettled: statistics after a
				// parallel-engine trap are unspecified (see the trap note in
				// the file comment).
				pw.err = err
				return
			}
			switch {
			case issued:
				pw.issuedAny = true
				c.nextWake = s.cycle + 1
				c.stallFrom = noWake
				q.running = append(q.running, ci)
				if c.md.active {
					pw.defers = append(pw.defers, int(ci))
				}
			case wake == noWake:
				c.nextWake = noWake
				c.stallFrom = s.cycle
				q.parked = append(q.parked, ci)
			default:
				c.nextWake = wake
				c.stallFrom = s.cycle
				q.push(wake, ci)
			}
		}
		pw.anyActive = q.live > 0
		pw.minWake = q.next()
	}

	issueStep := stepEvent
	if tick {
		issueStep = stepTick
	}

	var (
		gen  atomic.Uint64 // bumped by the coordinator to release an issue phase
		done atomic.Int64  // workers finished with the current issue phase
		stop atomic.Bool
	)
	for wi := 1; wi < nw; wi++ {
		go func(pw *parWorker) {
			var last uint64
			for {
				for gen.Load() == last {
					if stop.Load() {
						return
					}
					runtime.Gosched()
				}
				last++
				issueStep(pw)
				done.Add(1)
			}
		}(&ws[wi])
	}
	// Workers are only ever parked in the spin loop when we return, so
	// setting the flag (without bumping gen) is enough to shut them down.
	defer stop.Store(true)

	for {
		done.Store(0)
		gen.Add(1)
		issueStep(&ws[0]) // the coordinator doubles as worker 0
		for done.Load() != int64(nw-1) {
			runtime.Gosched()
		}

		anyActive, issuedAny := false, false
		minWake := noWake
		var firstErr error
		for wi := range ws {
			pw := &ws[wi]
			if pw.err != nil && firstErr == nil {
				firstErr = pw.err // ranges ascend: first is the lowest core
			}
			anyActive = anyActive || pw.anyActive
			issuedAny = issuedAny || pw.issuedAny
			if pw.minWake < minWake {
				minWake = pw.minWake
			}
		}
		if firstErr != nil {
			return firstErr
		}

		// Commit phase: shared-memory requests in (cycle, core) order. The
		// workers gathered their deferring cores during the issue phase
		// (ranges and per-range due lists ascend, so the concatenation is
		// in core order).
		for wi := range ws {
			for _, ci := range ws[wi].defers {
				s.commitDeferred(&s.cores[ci])
			}
		}

		if !anyActive {
			return nil
		}
		if issuedAny {
			s.cycle++
		} else if minWake == noWake {
			// No timed event on any worker: every remaining live core is
			// parked on a barrier that can never fill.
			if !tick {
				s.flushAllStalls(s.cycle + 1)
			}
			return s.deadlockTrap()
		} else if tick {
			s.jumpTo(minWake)
		} else {
			s.cycle = minWake // stall spans settle lazily at the next pop
		}
		if s.cycle > deadline {
			if !tick {
				s.flushAllStalls(s.cycle)
			}
			return fmt.Errorf("sim: exceeded cycle limit %d on %s", limit, s.cfg.Name())
		}
	}
}

// commitDeferred completes one core's queued memory instruction against the
// shared levels and patches the load's scoreboard entry. Must run in
// ascending core order within the cycle.
func (s *Sim) commitDeferred(c *simCore) {
	d := &c.md
	d.active = false
	done := d.partialDone
	for i := 0; i < d.nMiss; i++ {
		r := s.hier.SharedAccess(d.miss[i])
		if r.Done > done {
			done = r.Done
		}
		if s.mshrs > 0 {
			c.mshr = append(c.mshr, r.Done)
		}
	}
	if d.isLoad {
		w := &c.warps[d.wid]
		if d.fp {
			w.pendF[d.rd] = done
		} else if d.rd != 0 {
			w.pendI[d.rd] = done
		}
	}
}
