package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"stashsim/internal/endpoint"
	"stashsim/internal/network"
	"stashsim/internal/sim"
	"stashsim/internal/trace"
)

// sampleEvery is the cycle stride of per-call timing samples in a driven
// loop. A clock read around every call would double the replay workload
// (its Switch.Step calls are mostly ~100 ns idle checks), so whole phases
// are timed once per cycle, calls are counted, and every sampleEvery-th
// cycle times each Switch.Step call on its own.
const sampleEvery = 64

// probeCycles is the length of the serial probe that gives the parallel
// workloads their per-call figures; the probe samples every cycle.
const probeCycles = 64

// loopStats accumulates what a benchmark-driven cycle loop observes.
type loopStats struct {
	cycles               int64
	genNS, epNS, swNS    int64 // phase totals; epNS includes deliverNS
	deliverNS            int64 // trace delivery hooks (inside epNS)
	swCalls, swUseful    int64
	epCalls, epUseful    int64
	stepSamples          []int64 // sampled Switch.Step durations
	idleNS, idleN        int64   // sampled calls that switched nothing
	backlogSum, stashSum int64
	occupancySamples     int64
}

// drive steps n itself, the way Network.Step does (every Endpoint.Step,
// then every Switch.Step, then Now++), for up to cycles cycles or until
// done reports true (nil: never). Traffic generators run as a phase of
// their own just before the endpoint phase; Gen is the first thing
// Endpoint.Step does, and each generator touches only its own endpoint,
// so the simulated results are those of Network.Run. The network must
// have no fault plan, checkpoint or observer hooks due (drive skips
// Network.Step's serial pre/post hooks).
func (ls *loopStats) drive(n *network.Network, cycles int64, done func() bool, stride int64) {
	eps, sws := n.Endpoints, n.Switches
	gens := make([]func(sim.Tick, *endpoint.Endpoint), len(eps))
	for i, ep := range eps {
		gens[i], ep.Gen = ep.Gen, nil
	}
	defer func() {
		for i, ep := range eps {
			ep.Gen = gens[i]
		}
	}()
	for c := int64(0); (cycles <= 0 || c < cycles) && (done == nil || !done()); c++ {
		now := n.Now
		sample := now%stride == 0
		t0 := time.Now()
		for i, g := range gens {
			if g != nil {
				g(now, eps[i])
			}
		}
		t1 := time.Now()
		for _, ep := range eps {
			before := ep.SentFlits + ep.RecvFlits
			ep.Step(now)
			if ep.SentFlits+ep.RecvFlits != before {
				ls.epUseful++
			}
		}
		t2 := time.Now()
		for _, s := range sws {
			before := s.Counters.FlitsSwitched
			if sample {
				a := time.Now()
				s.Step(now)
				d := int64(time.Since(a))
				ls.stepSamples = append(ls.stepSamples, d)
				if s.Counters.FlitsSwitched == before {
					ls.idleNS += d
					ls.idleN++
				}
			} else {
				s.Step(now)
			}
			if s.Counters.FlitsSwitched != before {
				ls.swUseful++
			}
		}
		t3 := time.Now()
		if sample {
			ls.backlogSum += n.TotalQueuedFlits()
			ls.stashSum += int64(n.TotalStashUsed())
			ls.occupancySamples++
		}
		n.Now++
		ls.genNS += int64(t1.Sub(t0))
		ls.epNS += int64(t2.Sub(t1))
		ls.swNS += int64(t3.Sub(t2))
		ls.cycles++
		ls.epCalls += int64(len(eps))
		ls.swCalls += int64(len(sws))
	}
}

// replay runs a trace replay to completion under drive, timing the
// replay's delivery hooks, and returns the simulated cycles it took.
// Replay.Run(0) performs the initial rank advance (and reports the
// unfinished replay, which is expected here).
func (ls *loopStats) replay(n *network.Network, rp *trace.Replay, budget int64) int64 {
	for _, ep := range n.Endpoints {
		if hook := ep.OnDelivered; hook != nil {
			ep.OnDelivered = func(d endpoint.Delivery) {
				a := time.Now()
				hook(d)
				ls.deliverNS += int64(time.Since(a))
			}
		}
	}
	start := n.Now
	_, _ = rp.Run(0) // advance every rank; the error only says "not done yet"
	ls.drive(n, budget, rp.Done, sampleEvery)
	return int64(n.Now - start)
}

// span is one traced interval; Parent indexes the enclosing span (-1 for
// a root). Spans stay in memory until the run ends.
type span struct {
	Name   string
	Start  int64 // ns since the recorder's origin
	End    int64
	Parent int
}

type spanRecorder struct {
	origin time.Time
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span and returns its index (a nil recorder records
// nothing and returns -1).
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.origin)), Parent: parent})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.origin))
}

// add records an already measured interval as a child of parent; the
// per-cycle phases of a driven loop are summed and added this way.
func (r *spanRecorder) add(name string, parent int, durNS int64) {
	if r == nil || parent < 0 {
		return
	}
	p := r.spans[parent]
	r.spans = append(r.spans, span{Name: name, Start: p.Start, End: p.Start + durNS, Parent: parent})
}

// selfNS returns the span's duration minus the time its children cover.
func (r *spanRecorder) selfNS(i int) int64 {
	self := r.spans[i].End - r.spans[i].Start
	for _, s := range r.spans {
		if s.Parent == i {
			self -= s.End - s.Start
		}
	}
	return self
}

// write stores the spans as a Chrome trace_event file (complete events,
// microseconds), with each span's self time in its args.
func (r *spanRecorder) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(r.spans))
	for i, s := range r.spans {
		depth := 0
		for p := s.Parent; p >= 0; p = r.spans[p].Parent {
			depth++
		}
		evs[i] = event{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: depth, Args: map[string]any{"self_us": float64(r.selfNS(i)) / 1e3, "parent": s.Parent}}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

var layerNames = [][2]string{
	{"network.new_s", "s"}, {"tracegen.gen_s", "s"},
	{"snapshot.bytes", "bytes"}, {"snapshot.decode_mb_s", "MB/s"}, {"snapshot.encode_mb_s", "MB/s"},
	{"core.step_s", "s"}, {"core.step_ns_p50", "ns"}, {"core.step_ns_p99", "ns"}, {"core.ns_per_flit", "ns"},
	{"core.useful_step_frac", "fraction"}, {"core.idle_step_ns", "ns"},
	{"endpoint.step_s", "s"}, {"endpoint.useful_step_frac", "fraction"}, {"traffic.gen_s", "s"},
	{"endpoint.backlog_flits", "flits"}, {"stash.stores", "count"}, {"stash.retrieves", "count"},
	{"stash.full_stalls", "count"}, {"stash.resident_flits_mean", "flits"},
	{"core.hol_absorbed", "count"}, {"core.ecn_marks", "count"},
	{"sim.work_frac", "fraction"}, {"sim.barrier_frac", "fraction"}, {"sim.post_hook_frac", "fraction"},
	{"sim.cycles_per_sync", "cycles"}, {"sim.imbalance", "fraction"},
	{"fault.pkts_dropped", "count"}, {"fault.stash_resends", "count"}, {"fault.endpoint_resends", "count"},
	{"fault.drain_cycles", "cycles"},
	{"trace.deliver_s", "s"}, {"trace.msgs", "count"},
	{"go.alloc_mb", "MB"}, {"go.gc_count", "count"},
	{"bench.trace_overhead_frac", "ratio"},
}

// layerMetrics derives the per-layer metrics from the last traced
// repetition. The serial workloads report their own driven loop; the
// parallel ones report the executor profile for phase totals and the
// serial probe for per-call figures. A metric a workload does not
// exercise reads 0.
func layerMetrics(w *Workload, reps []*rep, dc drainCheck) map[string]metric {
	var traced, untraced []float64
	var newS, genS []float64
	var t *rep
	for _, r := range reps {
		newS = append(newS, float64(r.newNS)/1e9)
		genS = append(genS, float64(r.genNS)/1e9)
		if r.traced {
			traced = append(traced, refSeconds(r.windowNS, r.calNS))
			t = r
		} else {
			untraced = append(untraced, refSeconds(r.windowNS, r.calNS))
		}
	}
	ls := t.loop
	v := map[string]float64{
		"network.new_s":             median(newS),
		"tracegen.gen_s":            median(genS),
		"stash.stores":              float64(t.stores),
		"stash.retrieves":           float64(t.retrieves),
		"stash.full_stalls":         float64(t.fullStalls),
		"core.hol_absorbed":         float64(t.holAbsorbed),
		"core.ecn_marks":            float64(t.ecnMarks),
		"fault.pkts_dropped":        float64(t.drops),
		"fault.stash_resends":       float64(t.stashResends),
		"fault.endpoint_resends":    float64(t.endpointResends),
		"fault.drain_cycles":        float64(dc.drainCycles),
		"trace.deliver_s":           float64(ls.deliverNS) / 1e9,
		"go.alloc_mb":               float64(t.allocBytes) / (1 << 20),
		"go.gc_count":               float64(t.gcCount),
		"core.step_ns_p50":          quantileInt(ls.stepSamples, 0.50),
		"core.step_ns_p99":          quantileInt(ls.stepSamples, 0.99),
		"core.useful_step_frac":     ratio(ls.swUseful, ls.swCalls),
		"core.idle_step_ns":         ratio(ls.idleNS, ls.idleN),
		"endpoint.useful_step_frac": ratio(ls.epUseful, ls.epCalls),
		"endpoint.backlog_flits":    ratio(ls.backlogSum, ls.occupancySamples),
		"stash.resident_flits_mean": ratio(ls.stashSum, ls.occupancySamples),
		"bench.trace_overhead_frac": median(traced) / median(untraced),
	}
	if w.Replay {
		v["trace.msgs"] = float64(t.traceMsgs)
	}
	mb := func(bytes int, ns int64) float64 {
		if ns <= 0 {
			return 0
		}
		return float64(bytes) / (1 << 20) / (float64(ns) / 1e9)
	}
	switch {
	case w.Resume:
		v["snapshot.bytes"] = float64(t.ckptBytes)
		v["snapshot.encode_mb_s"] = mb(t.ckptBytes, t.encodeNS)
		v["snapshot.decode_mb_s"] = mb(t.warmBytes, t.restoreNS)
	case t.probeBytes > 0:
		v["snapshot.bytes"] = float64(t.probeBytes)
		v["snapshot.encode_mb_s"] = mb(t.probeBytes, t.probeEnc)
		v["snapshot.decode_mb_s"] = mb(t.probeBytes, t.probeDec)
	}
	if t.prof == nil {
		// Driven loop: phases timed directly; endpoint self time excludes
		// the replay's delivery hooks.
		v["core.step_s"] = float64(ls.swNS) / 1e9
		v["endpoint.step_s"] = float64(ls.epNS-ls.deliverNS) / 1e9
		v["traffic.gen_s"] = float64(ls.genNS) / 1e9
	} else {
		rp := t.profile
		for _, lane := range rp.Lanes {
			for _, ph := range lane.Phases {
				switch ph.Phase {
				case "switches":
					v["core.step_s"] += float64(ph.TotalNS) / 1e9
				case "endpoints":
					v["endpoint.step_s"] += float64(ph.TotalNS) / 1e9
				}
			}
		}
		// The executor's endpoint phase includes the generators; the probe's
		// share of generator time estimates their part of the window.
		v["traffic.gen_s"] = float64(ls.genNS) / 1e9 * float64(t.cycles) / float64(ls.cycles)
		a := rp.Attribution
		v["sim.work_frac"] = a.WorkPct / 100
		v["sim.barrier_frac"] = a.BarrierWaitPct / 100
		v["sim.post_hook_frac"] = a.PostHookPct / 100
		v["sim.cycles_per_sync"] = a.CyclesPerSync
		v["sim.imbalance"] = a.ImbalancePct / 100
	}
	if t.flits > 0 {
		v["core.ns_per_flit"] = v["core.step_s"] * 1e9 / float64(t.flits)
	}
	m := map[string]metric{}
	for _, nm := range layerNames {
		m[nm[0]] = metric{v[nm[0]], nm[1]}
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
