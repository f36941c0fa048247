// Command perfbench is the repository's benchmark: it runs one named
// workload of the stashing-switch simulator for a given seed and host
// time, checks the simulated results, and prints every metric with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host cost and
// simulated results); with -trace 1 they are the per-layer ones. See
// README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// minSetups set-ups are sampled per run, within setupBudget of extra
// host time beyond the repetitions' own.
const (
	minSetups   = 15
	setupBudget = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 10, "host seconds after which no further repetition starts")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", "", "directory for the run record and, when traced, the span file")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o := &options{seed: *seed, seconds: *seconds, traced: *traced == 1}
	if o.cal, err = newCalibrator(max(w.Workers, 1)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference task:", err)
		os.Exit(2)
	}
	if o.traced {
		o.spans = newSpanRecorder()
	}
	res, rec := run(&w, o)
	if *out != "" {
		base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.Name, o.seed, *traced))
		if err := writeJSON(base+".json", rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		if o.traced {
			if err := o.spans.write(base + ".spans.json"); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}
	}
	printTable(rec, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// record is the run's full account, printed before the result line and
// written under -out: every number with the seed it was measured on.
type record struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Traced      bool    `json:"traced"`
	Reps        int     `json:"reps"`
	Digest      string  `json:"digest"`       // simulated results at the end of the window
	FinalDigest string  `json:"final_digest"` // after the drain
	FailedFrac  float64 `json:"failed_frac"`
	WallS       float64 `json:"wall_s"`
	// Per repetition, host seconds of the timed window and of the
	// reference task around it; every set-up sample (the repetitions'
	// first) in reference seconds; host seconds of the untimed drain.
	WindowS []float64         `json:"window_host_s"`
	CalS    []float64         `json:"reference_host_s"`
	SetupS  []float64         `json:"setup_ref_s"`
	DrainS  float64           `json:"drain_s"`
	Error   string            `json:"error,omitempty"`
	Metrics map[string]metric `json:"metrics"`
}

// run performs repetitions until o.seconds of host time have passed (at
// least two; a traced run alternates untraced and traced repetitions and
// ends on a traced one), then drains the last repetition and checks it.
func run(w *Workload, o *options) (*result, *record) {
	t00 := time.Now()
	rec := &record{Workload: w.Name, Seed: o.seed, Traced: o.traced}
	res := &result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	fail := func(err error) (*result, *record) {
		rec.Error = err.Error()
		rec.FailedFrac = 1
		res.Metrics = placeholders(o.traced)
		rec.Metrics = res.Metrics
		return res, rec
	}

	var warm []byte
	if w.Resume {
		var err error
		if warm, err = w.warmCheckpoint(o.seed); err != nil {
			return fail(err)
		}
	}
	var reps []*rep
	start := time.Now()
	for {
		traced := o.traced && len(reps)%2 == 1
		r, err := runRep(w, o, warm, traced)
		if err != nil {
			return fail(err)
		}
		reps = append(reps, r)
		enough := len(reps) >= 2 && time.Since(start).Seconds() >= o.seconds
		if enough && (!o.traced || traced) {
			break
		}
		r.b.net.Close()
		r.b = nil
	}
	last := reps[len(reps)-1]
	dc := finish(w, o, last)
	last.b.net.Close()

	// Set-up is short next to a repetition; sample it a few more times so
	// its median is steady. Extra samples scale by the repetitions' median
	// reference time.
	var setups, cals []float64
	for _, r := range reps {
		setups = append(setups, refSeconds(r.setupNS, r.calNS))
		cals = append(cals, float64(r.calNS))
	}
	calMid := int64(median(cals))
	for spent := time.Now(); len(setups) < minSetups && time.Since(spent) < setupBudget; {
		b, _, ns, err := setUp(w, o, warm)
		if err != nil {
			return fail(err)
		}
		b.net.Close()
		setups = append(setups, refSeconds(ns, calMid))
	}

	rec.Reps = len(reps)
	rec.SetupS = setups
	for _, r := range reps {
		rec.WindowS = append(rec.WindowS, float64(r.windowNS)/1e9)
		rec.CalS = append(rec.CalS, float64(r.calNS)/1e9)
	}
	rec.DrainS = float64(dc.drainNS) / 1e9
	rec.WallS = time.Since(t00).Seconds()
	rec.Digest = fmt.Sprintf("%016x", last.digest)
	rec.FinalDigest = fmt.Sprintf("%016x", dc.finalDigest)
	for _, r := range reps {
		if r.digest != last.digest && dc.err == nil {
			dc.err = fmt.Errorf("repetitions disagree: digest %016x vs %016x", r.digest, last.digest)
		}
	}
	res.Attempted, res.Failed = dc.attempted, dc.failed
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if dc.err != nil {
		// A run that fails a check counts as fully failed.
		rec.Error = dc.err.Error()
		res.Failed = res.Attempted
	}
	res.Correct = dc.err == nil
	rec.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	if o.traced {
		res.Metrics = layerMetrics(w, reps, dc)
	} else {
		res.Metrics = endToEndMetrics(reps, setups, dc, res, o.cal)
	}
	rec.Metrics = res.Metrics
	return res, rec
}

func endToEndMetrics(reps []*rep, setups []float64, dc drainCheck, res *result, cal *calibrator) map[string]metric {
	var window []float64
	for _, r := range reps {
		window = append(window, refSeconds(r.windowNS, r.calNS))
	}
	last := reps[len(reps)-1]
	runS := median(window)
	return map[string]metric{
		"setup_s":             {median(setups), "s"},
		"run_s":               {runS, "s"},
		"switch_cycles_per_s": {float64(last.switches) * float64(last.cycles) / runS, "1/s"},
		"peak_rss_mb":         {peakRSSMB(cal), "MB"},
		"delivered_frac":      {float64(res.Attempted-res.Failed) / float64(res.Attempted), "fraction"},
		"sim_accepted":        {last.accepted, "fraction"},
		"sim_lat_p50_ns":      {last.p50NS, "ns"},
		"sim_lat_p999_ns":     {last.p999NS, "ns"},
		"sim_lat_samples":     {float64(last.samples), "count"},
		"sim_replay_us":       {float64(dc.simDoneCycles) / cyclesPerNS / 1e3, "us"},
	}
}

// placeholders fills every metric of the mode with 0 for a run that
// failed before producing numbers (the result still reports failure).
func placeholders(traced bool) map[string]metric {
	names := endToEndNames
	if traced {
		names = layerNames
	}
	m := map[string]metric{}
	for _, nm := range names {
		m[nm[0]] = metric{0, nm[1]}
	}
	return m
}

var endToEndNames = [][2]string{
	{"setup_s", "s"}, {"run_s", "s"}, {"switch_cycles_per_s", "1/s"}, {"peak_rss_mb", "MB"},
	{"delivered_frac", "fraction"}, {"sim_accepted", "fraction"}, {"sim_lat_p50_ns", "ns"},
	{"sim_lat_p999_ns", "ns"}, {"sim_lat_samples", "count"}, {"sim_replay_us", "us"},
}

// peakRSSMB returns the process's peak resident set without the
// reference task's tables, which are mapped and resident from before the
// first repetition to the end of the run.
func peakRSSMB(cal *calibrator) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kib := ru.Maxrss // Linux reports KiB
	if cal != nil {
		kib -= cal.mappedBytes >> 10
	}
	return float64(kib) / 1024
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints the record as aligned text followed by its JSON line.
func printTable(rec *record, res *result) {
	fmt.Printf("workload %s  seed %d  trace %v  reps %d  digest %s/%s  failed %d/%d\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Reps, rec.Digest, rec.FinalDigest, res.Failed, res.Attempted)
	if rec.Error != "" {
		fmt.Printf("CHECK FAILED: %s\n", rec.Error)
	}
	names := make([]string, 0, len(rec.Metrics))
	for nm := range rec.Metrics {
		names = append(names, nm)
	}
	sort.Strings(names)
	for _, nm := range names {
		m := rec.Metrics[nm]
		fmt.Printf("  %-28s %18.6g %s\n", nm, m.Value, m.Unit)
	}
	line, _ := json.Marshal(rec)
	fmt.Println(string(line))
}
