package main

import (
	"fmt"
	"os"
	"time"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/network"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
	"stashsim/internal/trace"
	"stashsim/internal/tracegen"
	"stashsim/internal/traffic"
)

// Workload is one benchmark scenario on the small preset (114 switches,
// 342 endpoints): a network configuration, its offered load, its
// execution mode and the fixed amount of simulated work one repetition
// performs.
type Workload struct {
	Name    string
	Mode    core.StashMode
	Load    float64 // offered load of the measured class, fraction of capacity
	MsgPkts int     // message size in packets
	// Hotspots > 0 adds 4 aggressors per hotspot, wired as cmd/stashsim
	// -hotspots builds them; background traffic becomes the victim class.
	Hotspots int
	DropRate float64 // per-link Bernoulli packet drop probability
	Workers  int
	// Observed attaches the observer stack: metrics registry, watchdog
	// with its flight recorder, invariant audit and telemetry publisher.
	Observed bool
	// Resume makes every repetition resume from a warm checkpoint written
	// once beforehand, and write one checkpoint mid-window.
	Resume bool
	// Replay replays the AMG trace to completion instead of a fixed
	// window of open-loop traffic.
	Replay bool

	Warmup int64 // simulated cycles before the timed window (untimed)
	Window int64 // simulated cycles in the timed window
	// Budget bounds the drain after the window, or the replay itself.
	Budget int64
	// TraceRanks caps the AMG rank count (the replay workload only).
	TraceRanks int
}

// workloads lists the benchmark's workloads in the order BENCHMARK.json
// names them.
var workloads = []Workload{
	{
		Name: "uniform-e2e-serial", Mode: core.StashE2E,
		Load: 0.3, MsgPkts: 1, Workers: 1,
		Warmup: 1000, Window: 4000, Budget: 100_000,
	},
	{
		Name: "faults-e2e-w2", Mode: core.StashE2E,
		Load: 0.3, MsgPkts: 1, DropRate: 1e-3, Workers: 2, Resume: true,
		Warmup: 2000, Window: 4000, Budget: 400_000,
	},
	{
		Name: "hotspot-observed-w2", Mode: core.StashCongestion,
		Load: 0.4, MsgPkts: 16, Hotspots: 6, Workers: 2, Observed: true,
		Warmup: 2000, Window: 4000, Budget: 400_000,
	},
	{
		Name: "trace-amg-serial", Mode: core.StashE2E,
		Workers: 1, Replay: true, TraceRanks: 342, Budget: 20_000_000,
	},
}

func findWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// benchRetrans is the recovery ladder of the drop workload. The timers are
// shorter than core.DefaultRetrans so the post-window drain (bounded by
// the endpoint timeout) fits a benchmark run. The switch timeout still
// exceeds the ACK round trip (~1700 cycles even at paper scale), and the
// switch ladder (2048+4096 cycles) ends before the endpoint timer fires,
// so stash-local recovery wins whenever a stash copy exists.
func benchRetrans() core.RetransParams {
	return core.RetransParams{
		Enabled:         true,
		SwitchTimeout:   2048,
		SwitchRetries:   1,
		EndpointTimeout: 8192,
		EndpointRetries: 5,
		ScanEvery:       64,
	}
}

// measured returns the traffic class whose latency and acceptance the
// workload reports.
func (w *Workload) measured() proto.Class {
	switch {
	case w.Replay:
		return proto.ClassTrace
	case w.Hotspots > 0:
		return proto.ClassVictim
	}
	return proto.ClassDefault
}

func (w *Workload) config(seed uint64) *core.Config {
	cfg := core.SmallConfig()
	cfg.Mode = w.Mode
	if w.Mode == core.StashCongestion {
		cfg.ECN = core.DefaultECN()
	}
	cfg.Seed = seed
	if w.DropRate > 0 {
		cfg.Fault = &fault.Plan{Seed: seed, LinkDropRate: w.DropRate}
		cfg.Retrans = benchRetrans()
		cfg.RetainPayload = true
	}
	return cfg
}

// amgTrace generates the AMG trace the replay workload runs. Its rank
// count is fixed by the network size; the seed places it.
func (w *Workload) amgTrace() *trace.Trace {
	s := tracegen.DefaultScale()
	s.Ranks = w.TraceRanks
	return tracegen.AMG(s)
}

// traceBase is the seed-chosen endpoint of rank 0: the trace's ranks
// occupy a contiguous endpoint block starting there. The block starts on
// a dragonfly group boundary, so every placement keeps the trace's
// switch and group locality and the seed moves the ranks between
// symmetric positions only.
func traceBase(seed uint64, ranks int, d topo.Dragonfly) int32 {
	perGroup := d.P * d.A
	slots := (d.NumEndpoints()-ranks)/perGroup + 1
	return int32(int(seed%uint64(slots)) * perGroup)
}

// built is one freshly wired network plus its trace replay, if any.
type built struct {
	net       *network.Network
	replay    *trace.Replay // Replay workloads only
	traceMsgs int           // messages in the replayed trace
	newNS     int64         // host time of network.New
	genNS     int64         // host time of tracegen (Replay workloads only)
}

// build constructs and wires a network for the workload. Everything the
// simulation depends on derives from seed.
func (w *Workload) build(seed uint64) (*built, error) {
	cfg := w.config(seed)
	t0 := time.Now()
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	b := &built{net: n, newNS: int64(time.Since(t0))}
	if w.Workers > 1 {
		n.SetWorkers(w.Workers)
	}
	class := w.measured()
	n.Collectors.WithHist(class)
	if w.Observed {
		n.EnableMetrics(metrics.NewRegistry())
		n.AttachWatchdog(20_000, os.Stderr)
		n.AttachFlight(4096)
		n.EnableInvariants(64)
		n.AttachTelemetry(64)
	}
	if w.Replay {
		t1 := time.Now()
		tr := w.amgTrace()
		b.genNS = int64(time.Since(t1))
		b.traceMsgs = tr.TotalMessages()
		base := traceBase(seed, tr.Ranks, cfg.Topo)
		if b.replay, err = trace.NewReplay(tr, n, base); err != nil {
			return nil, err
		}
		return b, nil
	}
	w.wireTraffic(n, seed, class)
	return b, nil
}

// wireTraffic installs the open-loop generators: Bernoulli sources of the
// measured class and, with hotspots, the 4:1 aggressors exactly as
// cmd/stashsim -hotspots places them.
func (w *Workload) wireTraffic(n *network.Network, seed uint64, class proto.Class) {
	d := n.Cfg.Topo
	msgFlits := w.MsgPkts * proto.MaxPacketFlits
	hotDst := map[int32]bool{}
	if w.Hotspots > 0 {
		var dsts []int32
		for i := 0; i < w.Hotspots; i++ {
			id := int32(d.EndpointID((i*d.NumSwitches())/w.Hotspots, 0))
			if !hotDst[id] {
				hotDst[id] = true
				dsts = append(dsts, id)
			}
		}
		k := 0
		for i := 1; k < 4*w.Hotspots && i < d.NumEndpoints(); i += 7 {
			if id := int32(i); !hotDst[id] {
				n.Endpoints[id].Gen = traffic.Hotspot(dsts[k%len(dsts)], msgFlits, proto.ClassAggressor, 0)
				k++
			}
		}
	}
	rng := sim.NewRNG(seed + 77)
	for _, ep := range n.Endpoints {
		if ep.Gen != nil || hotDst[ep.ID] {
			continue
		}
		gen := rng.Derive(uint64(ep.ID))
		ep.Gen = traffic.Uniform(gen, len(n.Endpoints), nil, w.Load, n.ChannelRate(), msgFlits, class, 0)
		ep.GenRNG = gen
	}
}

// warmCheckpoint runs a fresh network through the warmup and returns the
// checkpoint every repetition of a Resume workload starts from.
func (w *Workload) warmCheckpoint(seed uint64) ([]byte, error) {
	b, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	defer b.net.Close()
	b.net.Warmup(w.Warmup)
	return b.net.Checkpoint(b.net.Now), nil
}
