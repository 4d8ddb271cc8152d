package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
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
//  2. Commit phase. After a barrier, the queued misses are applied to the
//     shared hierarchy. Cycles with little deferred work (or
//     Config.CommitWorkers=1) use the single-threaded global commit: every
//     miss walks mem.Hierarchy.SharedAccess in ascending core order, which
//     is exactly the order the sequential engine interleaves them at this
//     cycle. Cycles with enough work shard the commit over the worker
//     pool in two sub-phases:
//
//       a. Bank phase: worker w owns L2 banks b ≡ w (mod CommitWorkers)
//          and applies, for each owned bank, the bank-local halves of all
//          deferred misses (dirty-L1-victim absorbs and L2 lookups/fills)
//          in the global (cycle, core, miss) order restricted to that
//          bank. DRAM work is not applied yet: it is appended to the
//          bank's op queue tagged with its global order key.
//       b. Channel phase: after a barrier, worker w owns DRAM channels
//          c ≡ w (mod CommitWorkers), gathers its channels' ops from all
//          bank queues, sorts them by the global key, and applies them
//          (mem.Hierarchy.ChannelRead/ChannelWriteback) in that order.
//
//     Because L2 banks only interact through DRAM, and DRAM channels not
//     at all, restricting the global order to each bank and each channel
//     preserves every ordering the memory model can observe: the sharded
//     and global commits are byte-identical in all statistics and timing.
//     Finally the coordinator folds each deferred load's per-miss
//     completions into its warp's scoreboard. Completion times always lie
//     at least one cycle in the future, so deferring the patch past the
//     issue phase cannot be observed by any in-order pipeline.
//  3. The coordinator aggregates activity and wake times, advances the
//     device cycle (skipping idle gaps the same way the sequential engine
//     does, with identical stall attribution), and releases the next step.
//
// Because every shared-state mutation happens in an order the memory model
// cannot distinguish from the sequential engine's, cycle counts, per-core
// counters, cache and per-channel DRAM statistics are byte-identical for
// kernels whose cores do not race on device memory (the OpenCL-style
// workloads in this repository never do: each work item writes only
// addresses derived from its own gid). The only intentional divergence is
// trap handling: on an execution trap the (cycle, core)-minimal trap is
// returned, as in the sequential engine, but same-cycle side effects of
// higher-numbered cores may already be visible and — under the event
// engine — stall spans still pending on other cores stay unsettled, so
// statistics after an execution trap are unspecified. Deadlock traps and
// the MaxCycles deadline are decided by the coordinator after a complete
// cycle and stay byte-identical.
//
// Both engine flavours run through this machinery: the event engine
// (event.go, the default) gives each worker a wake queue over its core
// range so an issue phase touches only due cores, while Config.TickEngine
// selects the legacy full-range scan step as the differential oracle.
//
// Synchronization is a generation-counter spin barrier: workers park in a
// Gosched loop between steps and the coordinator publishes the phase kind
// before each generation bump. Simulated cycles are far shorter than any
// channel round trip, so avoiding scheduler wakeups per cycle is what makes
// per-cycle synchronization affordable; on a single-CPU host the Gosched
// calls keep the engine live (if slow), and resolveWorkers normally routes
// such hosts to the sequential engine anyway via Config.Workers=NumCPU.

// parWorker is one worker's core range and per-step result slate. Under
// the event engine each worker also owns the wake queue of its core range
// (q) and gathers the cores that deferred memory work this cycle (defers),
// so the coordinator's commit list is the concatenation of the workers'
// lists instead of an O(total cores) scan. The trailing pad keeps adjacent
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

// Commit-phase kinds, published by the coordinator before each barrier
// release so the pool knows which step body to run.
const (
	phaseIssue = iota
	phaseBank
	phaseChannel
)

// parCommitMinMisses is the auto-mode (CommitWorkers=0) cutover: cycles
// deferring fewer line misses than this commit through the single-threaded
// global path, because two extra barrier round trips cost more than the
// walks they would parallelize. Both paths are byte-identical, so the
// cutover affects wall-clock only, never results.
const parCommitMinMisses = 24

// dramOp is one deferred main-memory operation, produced by a bank worker
// and applied by the owning channel worker. seq is the global commit-order
// key within the cycle — (core << 8) | (miss index << 2) | sub — where sub
// orders the up-to-three DRAM side effects of one miss exactly like
// SharedAccess: 0 the dirty-L1-victim absorb's writeback, 1 the L2 fill
// victim's writeback, 2 the line read.
type dramOp struct {
	addr uint32
	ch   int32 // target channel, precomputed at emit time
	read bool
	at   uint64
	seq  uint64
	done *uint64 // completion sink for reads (a md.missDone slot)
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

	ncw := s.resolveCommitWorkers(nw)
	if ncw > 1 {
		if len(s.bankOps) != s.hier.L2Banks() {
			s.bankOps = make([][]dramOp, s.hier.L2Banks())
		}
		if len(s.chanOps) != s.hier.DRAMChannels() {
			s.chanOps = make([][]dramOp, s.hier.DRAMChannels())
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

	// bankStep/chanStep run one worker's share of a sharded commit. Banks
	// and channels are striped over the first ncw workers; surplus workers
	// pass the barrier without touching shared state.
	bankStep := func(wi int) {
		if wi >= ncw {
			return
		}
		for b := wi; b < len(s.bankOps); b += ncw {
			s.commitBank(b)
		}
	}
	chanStep := func(wi int) {
		if wi >= ncw {
			return
		}
		s.commitChannels(wi, ncw)
	}

	var (
		gen   atomic.Uint64 // bumped by the coordinator to release a step
		done  atomic.Int64  // workers finished with the current step
		stop  atomic.Bool
		phase int // published before the gen bump, read after observing it
	)
	for wi := 1; wi < nw; wi++ {
		go func(wi int, pw *parWorker) {
			var last uint64
			for {
				for gen.Load() == last {
					if stop.Load() {
						return
					}
					runtime.Gosched()
				}
				last++
				switch phase {
				case phaseIssue:
					issueStep(pw)
				case phaseBank:
					bankStep(wi)
				case phaseChannel:
					chanStep(wi)
				}
				done.Add(1)
			}
		}(wi, &ws[wi])
	}
	// Workers are only ever parked in the spin loop when we return, so
	// setting the flag (without bumping gen) is enough to shut them down.
	defer stop.Store(true)

	release := func(p int) {
		done.Store(0)
		phase = p
		gen.Add(1)
	}
	barrier := func() {
		for done.Load() != int64(nw-1) {
			runtime.Gosched()
		}
	}

	for {
		release(phaseIssue)
		issueStep(&ws[0]) // the coordinator doubles as worker 0
		barrier()

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

		// Commit phase: shared-memory requests in (cycle, core) order —
		// globally on the serial path, restricted to each bank/channel on
		// the sharded path. The two are byte-identical; the choice is a
		// pure wall-clock trade (see parCommitMinMisses). The event workers
		// gathered their deferring cores during the issue phase (ranges and
		// per-range due lists ascend, so the concatenation is in core
		// order); the tick engine scans all cores, as it does everywhere.
		list := s.commitList[:0]
		misses := 0
		if tick {
			for i := range s.cores {
				if s.cores[i].md.active {
					list = append(list, i)
					misses += s.cores[i].md.nMiss
				}
			}
		} else {
			for wi := range ws {
				for _, ci := range ws[wi].defers {
					list = append(list, ci)
					misses += s.cores[ci].md.nMiss
				}
			}
		}
		s.commitList = list
		if len(list) > 0 {
			shard := ncw > 1
			if s.cfg.CommitWorkers == 0 && (misses < parCommitMinMisses || len(list) < 2) {
				shard = false
			}
			if shard {
				release(phaseBank)
				bankStep(0)
				barrier()
				release(phaseChannel)
				chanStep(0)
				barrier()
				s.commitPatch()
			} else {
				for _, ci := range list {
					s.commitDeferred(&s.cores[ci])
				}
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

// resolveCommitWorkers clamps Config.CommitWorkers to the issue worker
// pool; 0 follows the pool size.
func (s *Sim) resolveCommitWorkers(nw int) int {
	cw := s.cfg.CommitWorkers
	if cw == 0 || cw > nw {
		cw = nw
	}
	if cw < 1 {
		cw = 1
	}
	return cw
}

// commitBank applies the bank-local halves of every deferred miss whose
// line (or dirty L1 victim) lives in bank b, in the global (core, miss)
// order restricted to that bank, and routes the resulting DRAM work to the
// bank's op queue. Runs concurrently for distinct banks.
func (s *Sim) commitBank(b int) {
	ops := s.bankOps[b][:0]
	h := s.hier
	for _, ci := range s.commitList {
		d := &s.cores[ci].md
		base := uint64(ci) << 8
		for i := 0; i < d.nMiss; i++ {
			m := &d.miss[i]
			if m.WB && h.BankOf(m.WBAddr) == b {
				if v, wb := h.BankAbsorbWriteback(m.WBAddr, m.At); wb {
					ops = append(ops, dramOp{addr: v, ch: int32(h.ChannelOf(v)),
						at: m.At, seq: base | uint64(i)<<2})
				}
			}
			if h.BankOf(m.Addr) != b {
				continue
			}
			res, fetchAt, needDRAM, victim, hasVictim := h.BankFill(*m)
			if hasVictim {
				ops = append(ops, dramOp{addr: victim, ch: int32(h.ChannelOf(victim)),
					at: fetchAt, seq: base | uint64(i)<<2 | 1})
			}
			if needDRAM {
				ops = append(ops, dramOp{addr: m.Addr, ch: int32(h.ChannelOf(m.Addr)), read: true,
					at: fetchAt, seq: base | uint64(i)<<2 | 2, done: &d.missDone[i]})
			} else {
				d.missDone[i] = res.Done
			}
		}
	}
	s.bankOps[b] = ops
}

// commitChannels applies one worker's share of the cycle's DRAM ops: a
// single pass over the bank queues routes the ops of the worker's channels
// (ch ≡ wi mod ncw) into per-channel buckets, then each bucket is sorted
// back into global order by the seq key and drained. Distinct workers own
// disjoint channel sets, so the buckets and channel states never overlap.
func (s *Sim) commitChannels(wi, ncw int) {
	for ch := wi; ch < len(s.chanOps); ch += ncw {
		s.chanOps[ch] = s.chanOps[ch][:0]
	}
	for b := range s.bankOps {
		for j := range s.bankOps[b] {
			op := &s.bankOps[b][j]
			if ch := int(op.ch); ch%ncw == wi {
				s.chanOps[ch] = append(s.chanOps[ch], *op)
			}
		}
	}
	h := s.hier
	for ch := wi; ch < len(s.chanOps); ch += ncw {
		ops := s.chanOps[ch]
		slices.SortFunc(ops, func(a, b dramOp) int { return cmp.Compare(a.seq, b.seq) })
		for i := range ops {
			op := &ops[i]
			if op.read {
				*op.done = h.ChannelRead(op.addr, op.at)
			} else {
				h.ChannelWriteback(op.addr, op.at)
			}
		}
		s.chanOps[ch] = ops
	}
}

// commitPatch folds each deferred load's per-miss completions into its
// warp's scoreboard after a sharded commit. Single-threaded (coordinator).
func (s *Sim) commitPatch() {
	for _, ci := range s.commitList {
		c := &s.cores[ci]
		d := &c.md
		d.active = false
		done := d.partialDone
		for i := 0; i < d.nMiss; i++ {
			if d.missDone[i] > done {
				done = d.missDone[i]
			}
			if s.mshrs > 0 {
				c.mshr = append(c.mshr, d.missDone[i])
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
}

// commitDeferred completes one core's queued memory instruction against the
// shared levels via the single-threaded global path and patches the load's
// scoreboard entry. Must run in ascending core order within the cycle.
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
