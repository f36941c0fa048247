package main

import (
	"testing"

	"stashsim/internal/stats"
)

// short returns the named workload shrunk to a few hundred cycles (the
// replay to a 27-rank AMG trace) so the self-tests run in seconds.
func short(t *testing.T, name string) *Workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.Warmup /= 10
	w.Window /= 10
	if w.Replay {
		w.TraceRanks = 27
	}
	return &w
}

// repDigests runs one repetition and drains it, returning the digest at
// the end of the window and the one after the drain.
func repDigests(t *testing.T, w *Workload, o *options, traced bool) (window, final uint64) {
	t.Helper()
	if traced && o.spans == nil {
		o.spans = newSpanRecorder()
	}
	r, err := runRep(w, o, nil, traced)
	if err != nil {
		t.Fatal(err)
	}
	dc := finish(w, o, r)
	r.b.net.Close()
	if dc.err != nil {
		t.Fatal(dc.err)
	}
	return r.digest, dc.finalDigest
}

func TestWorkerCountKeepsDigest(t *testing.T) {
	for _, name := range []string{"uniform-e2e-serial", "hotspot-observed-w2"} {
		w := short(t, name)
		w.Workers = 1
		s, sf := repDigests(t, w, &options{seed: 5}, false)
		w.Workers = 2
		p, pf := repDigests(t, w, &options{seed: 5}, false)
		if s != p || sf != pf {
			t.Errorf("%s: serial digests %016x/%016x, 2 workers %016x/%016x", name, s, sf, p, pf)
		}
	}
}

func TestResumeMatchesStraightThrough(t *testing.T) {
	w := short(t, "faults-e2e-w2")
	const seed = 3
	warm, err := w.warmCheckpoint(seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runRep(w, &options{seed: seed}, warm, false)
	if err != nil {
		t.Fatal(err)
	}
	r.b.net.Close()
	if r.ckptBytes == 0 {
		t.Error("no mid-window checkpoint was written")
	}

	b, err := w.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer b.net.Close()
	b.net.Warmup(w.Warmup)
	b.net.Run(w.Window)
	if got := digest(b.net, w, w.Window); got != r.digest {
		t.Errorf("resumed digest %016x, straight-through %016x", r.digest, got)
	}
}

func TestTracingKeepsDigest(t *testing.T) {
	for _, name := range []string{"uniform-e2e-serial", "trace-amg-serial"} {
		w := short(t, name)
		u, uf := repDigests(t, w, &options{seed: 7}, false)
		tr, tf := repDigests(t, w, &options{seed: 7}, true)
		if u != tr || uf != tf {
			t.Errorf("%s: untraced digests %016x/%016x, traced %016x/%016x", name, u, uf, tr, tf)
		}
	}
}

func TestPlantedPacketFailsTheRun(t *testing.T) {
	w := short(t, "uniform-e2e-serial")
	w.Budget = 2000
	res, rec := run(w, &options{seed: 1, plant: true})
	if res.Correct || res.Failed == 0 || rec.FailedFrac == 0 {
		t.Fatalf("planted packet not reported: correct=%v failed=%d/%d failed_frac=%v",
			res.Correct, res.Failed, res.Attempted, rec.FailedFrac)
	}
	if res.Failed != res.Attempted {
		t.Errorf("a failed check must count the run as fully failed: %d of %d", res.Failed, res.Attempted)
	}
}

func TestRunReportsEveryMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		w := short(t, "uniform-e2e-serial")
		o := &options{seed: 2, traced: traced}
		if traced {
			o.spans = newSpanRecorder()
		}
		res, rec := run(w, o)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v failed=%d/%d: %s", traced, res.Correct, res.Failed, res.Attempted, rec.Error)
		}
		names := endToEndNames
		if traced {
			names = layerNames
		}
		if len(res.Metrics) != len(names) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(names))
		}
		for _, nm := range names {
			m, ok := res.Metrics[nm[0]]
			if !ok || m.Unit != nm[1] {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, nm[0], m, nm[1])
			}
			if !traced && m.Value <= 0 {
				t.Errorf("end-to-end metric %s is %v", nm[0], m.Value)
			}
		}
	}
}

func TestPercentileInterpolatesInsideBucket(t *testing.T) {
	var uniform, outlier stats.Hist
	for v := int64(800); v < 816; v++ { // one 16-wide bucket
		uniform.Add(v)
	}
	for i := 0; i < 999; i++ {
		outlier.Add(100)
	}
	outlier.Add(1000) // alone in the top bucket [992, 1024)
	for _, c := range []struct {
		h    *stats.Hist
		p    float64
		want float64
	}{
		{&uniform, 50, 808},
		{&outlier, 99.95, 1000}, // interpolation reads 1008; clamped to the largest observation
	} {
		if got := percentile(c.h, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestBucketLayoutMatchesHist checks the mirrored bucket layout against
// stats.Hist: a histogram of one value reports its bucket's floor.
func TestBucketLayoutMatchesHist(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 777, 1023, 1024, 5000, 123456, 1 << 40} {
		var h stats.Hist
		h.Add(v)
		if got, want := bucketLow(bucketOf(v)), h.Percentile(50); got != want {
			t.Errorf("value %d: mirrored bucket floor %d, stats.Hist %d", v, got, want)
		}
		if lo, next := bucketLow(bucketOf(v)), bucketLow(bucketOf(v)+1); v < lo || v >= next {
			t.Errorf("value %d outside its mirrored bucket [%d, %d)", v, lo, next)
		}
	}
}
