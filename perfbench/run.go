package main

import (
	"fmt"
	"runtime"
	"time"

	"stashsim/internal/network"
	"stashsim/internal/sim"
)

// options controls one benchmark run.
type options struct {
	seed    uint64
	seconds float64 // keep starting repetitions until this much host time has passed
	traced  bool
	spans   *spanRecorder // traced runs only
	cal     *calibrator   // reference task (nil: host seconds unscaled)
	// plant adds one injected-but-never-sent packet before the drain, so
	// the exactly-once check must report it (self-tests).
	plant bool
}

// rep is one repetition: a fresh network, set up and run through the
// workload's fixed amount of simulated work.
type rep struct {
	traced    bool
	b         *built // released (nil) once the repetition is done, except the last
	switches  int
	newNS     int64
	genNS     int64
	traceMsgs int
	setupNS   int64
	restoreNS int64 // Resume workloads: Network.Restore of the warm checkpoint
	warmBytes int   // size of that checkpoint
	windowNS  int64
	calNS     int64 // reference task around the window (0: not run)
	cycles    int64 // simulated cycles in the timed window (the whole replay)
	digest    uint64

	// Mid-window checkpoint (Resume workloads).
	ckptBytes int
	encodeNS  int64

	// Traced repetitions only.
	loop       *loopStats // driven loop (serial workloads) or serial probe
	prof       *sim.ExecProfiler
	profile    *sim.ExecReport // taken at the end of the window
	probeBytes int
	probeEnc   int64
	probeDec   int64
	allocBytes uint64
	gcCount    uint32

	// Simulated results at the end of the window.
	accepted, p50NS, p999NS float64
	samples                 int64
	flits                   int64 // flits switched in the window
	stores, retrieves       int64
	fullStalls, holAbsorbed int64
	ecnMarks                int64
	drops, stashResends     int64
	endpointResends         int64
}

// setUp builds the workload's network ready for its first timed cycle
// (restoring the warm checkpoint on Resume workloads) and returns it with
// the host time of the restore and of the whole set-up.
func setUp(w *Workload, o *options, warm []byte) (b *built, restoreNS, setupNS int64, err error) {
	runtime.GC() // leave no collection debt from earlier work
	t0 := time.Now()
	if b, err = w.build(o.seed); err != nil {
		return nil, 0, 0, err
	}
	if w.Resume {
		t := time.Now()
		if err := b.net.Restore(warm); err != nil {
			b.net.Close()
			return nil, 0, 0, fmt.Errorf("restore warm checkpoint: %w", err)
		}
		restoreNS = int64(time.Since(t))
	}
	return b, restoreNS, int64(time.Since(t0)), nil
}

// recovered turns a panic inside the simulator (an invariant violation,
// for one) into a failed check, so the run still reports its result.
func recovered(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic: %v", p)
	}
}

// runRep sets up the workload's network and runs its timed window.
func runRep(w *Workload, o *options, warm []byte, traced bool) (r *rep, err error) {
	defer recovered(&err)
	r = &rep{traced: traced}
	parent := -1
	if traced {
		parent = o.spans.begin("rep", -1)
		defer o.spans.end(parent)
	}
	sp := o.spans.begin("setup", parent)
	b, restoreNS, setupNS, err := setUp(w, o, warm)
	if err != nil {
		return nil, err
	}
	r.b, r.restoreNS, r.setupNS, r.warmBytes = b, restoreNS, setupNS, len(warm)
	r.switches, r.newNS, r.genNS, r.traceMsgs = len(b.net.Switches), b.newNS, b.genNS, b.traceMsgs
	n := b.net
	o.spans.add("network.New", sp, b.newNS)
	o.spans.add("tracegen.AMG", sp, b.genNS)
	o.spans.end(sp)

	if w.Warmup > 0 && !w.Resume {
		wu := o.spans.begin("warmup", parent)
		n.Warmup(w.Warmup)
		o.spans.end(wu)
	}
	if traced {
		r.loop = &loopStats{}
		if w.Workers > 1 {
			r.prof = n.EnableExecProfile(0)
		}
	}
	if w.Resume {
		n.ScheduleCheckpoint(int64(n.Now)+w.Window/2, func(now sim.Tick) {
			t := time.Now()
			r.ckptBytes = len(n.Checkpoint(now))
			r.encodeNS = int64(time.Since(t))
		})
	}
	calBefore := o.cal.run()
	c0, f0, e0 := n.Counters(), n.FaultStats(), endpointResends(n)
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	win := o.spans.begin("window", parent)
	t1 := time.Now()
	switch {
	case w.Replay && traced:
		r.cycles = r.loop.replay(n, b.replay, w.Budget)
	case w.Replay:
		// An incomplete replay is reported by finish.
		r.cycles, _ = b.replay.Run(w.Budget)
	case traced && r.prof == nil:
		r.loop.drive(n, w.Window, nil, sampleEvery)
		r.cycles = w.Window
	default:
		n.Run(w.Window)
		r.cycles = w.Window
	}
	r.windowNS = int64(time.Since(t1))
	o.spans.end(win)
	r.profile = r.prof.Report()
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		r.gcCount = ms1.NumGC - ms0.NumGC
		if r.loop.cycles > 0 {
			o.spans.add("traffic.Gen", win, r.loop.genNS)
			ep := len(o.spans.spans)
			o.spans.add("Endpoint.Step", win, r.loop.epNS)
			if w.Replay {
				o.spans.add("Replay.onDelivered", ep, r.loop.deliverNS)
			}
			o.spans.add("Switch.Step", win, r.loop.swNS)
		}
	}

	if calBefore > 0 {
		r.calNS = (calBefore + o.cal.run()) / 2
	}

	c1 := n.Counters()
	r.flits = c1.FlitsSwitched - c0.FlitsSwitched
	r.stores = c1.StashStores - c0.StashStores
	r.retrieves = c1.StashRetrieves - c0.StashRetrieves
	r.fullStalls = c1.StashFullStalls - c0.StashFullStalls
	r.holAbsorbed = c1.HoLAbsorbed - c0.HoLAbsorbed
	r.ecnMarks = c1.ECNMarks - c0.ECNMarks
	r.stashResends = c1.E2ERetransmits - c0.E2ERetransmits
	r.drops = n.FaultStats().PktsDropped - f0.PktsDropped
	r.endpointResends = endpointResends(n) - e0
	col := n.Collector()
	class := w.measured()
	r.accepted = float64(col.DeliveredFlits[class]) / float64(r.cycles) / float64(len(n.Endpoints)) / n.ChannelRate()
	if h := col.LatHist[class]; h != nil {
		r.samples = h.N()
		r.p50NS = percentile(h, 50) / cyclesPerNS
		r.p999NS = percentile(h, 99.9) / cyclesPerNS
	}
	r.digest = digest(n, w, r.cycles)

	if traced && r.prof != nil {
		pr := o.spans.begin("probe", parent)
		err := r.probe(w, o)
		o.spans.end(pr)
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// probe gives a parallel workload its per-call figures: it checkpoints
// the network at the end of the window, restores the state into a fresh
// network and steps that one serially under drive for probeCycles. The
// measured network itself is not touched.
func (r *rep) probe(w *Workload, o *options) error {
	n := r.b.net
	t := time.Now()
	data := n.Checkpoint(n.Now)
	r.probeEnc = int64(time.Since(t))
	r.probeBytes = len(data)
	pb, err := w.build(o.seed)
	if err != nil {
		return err
	}
	defer pb.net.Close()
	t = time.Now()
	if err := pb.net.Restore(data); err != nil {
		return fmt.Errorf("restore probe checkpoint: %w", err)
	}
	r.probeDec = int64(time.Since(t))
	r.loop.drive(pb.net, probeCycles, nil, 1)
	return nil
}

func endpointResends(n *network.Network) int64 {
	var total int64
	for _, ep := range n.Endpoints {
		total += ep.Retransmits
	}
	return total
}

// settled reports whether every injected packet was delivered or
// abandoned and no backlog remains.
func settled(n *network.Network) bool {
	if n.TotalQueuedFlits() > 0 {
		return false
	}
	injected, delivered, _, abandoned := n.DeliveryTotals()
	return delivered+abandoned >= injected
}

// drainCheck is the result of the correctness gate after the last
// repetition.
type drainCheck struct {
	attempted, failed int64
	drainCycles       int64
	drainNS           int64 // host time of the drain (untimed by the metrics)
	simDoneCycles     int64 // window (or replay) plus drain
	finalDigest       uint64
	err               error
}

// finish stops the generators of the last repetition, drains its network
// and checks exactly-once delivery (and, for the replay, completion).
func finish(w *Workload, o *options, r *rep) (dc drainCheck) {
	defer recovered(&dc.err)
	n := r.b.net
	if o.plant {
		n.Endpoints[0].InjectedPkts++
	}
	if w.Replay {
		dc.attempted = int64(r.traceMsgs)
		if !r.b.replay.Done() {
			dc.err = fmt.Errorf("replay incomplete after %d cycles", w.Budget)
		}
	} else {
		for _, ep := range n.Endpoints {
			ep.Gen = nil
		}
	}
	// Network.Drain checks every 256 cycles; checking every 8 lets
	// sim_replay_us resolve when the drain really ended.
	start, t0 := n.Now, time.Now()
	ok := settled(n) || n.RunUntil(w.Budget, 8, func() bool { return settled(n) })
	dc.drainCycles = int64(n.Now - start)
	dc.drainNS = int64(time.Since(t0))
	dc.simDoneCycles = r.cycles + dc.drainCycles
	injected, delivered, _, abandoned := n.DeliveryTotals()
	if !w.Replay {
		dc.attempted = injected
	}
	dc.failed = injected - delivered
	if dc.err == nil && !ok {
		dc.err = fmt.Errorf("not drained after %d cycles: %d injected, %d delivered, %d abandoned",
			w.Budget, injected, delivered, abandoned)
	}
	if dc.err == nil && dc.failed != 0 {
		dc.err = fmt.Errorf("%d of %d packets not delivered exactly once", dc.failed, injected)
	}
	if w.Observed && n.Invariants.Checks == 0 {
		dc.err = fmt.Errorf("invariant audit never ran")
	}
	dc.finalDigest = digest(n, w, dc.simDoneCycles)
	return dc
}
