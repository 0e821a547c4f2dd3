package core

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/metrics"
	"bce/internal/workload"
)

// plan_test.go pins the contracts distributed execution rests on:
// JobSpec.Key() must equal the in-process timing key for the same
// configuration (otherwise remote results never merge), and
// CollectJobs must enumerate the job space deterministically while
// excluding stored results.

// TestJobSpecKeyMatchesTimingKey is the byte-identity cornerstone: for
// every wire-expressible configuration, the key a worker derives from
// the decoded JobSpec must equal the key the coordinator's in-process
// aggregation pass computes. If these ever diverge, distributed sweeps
// recompute everything (or worse, silently miss the merge).
func TestJobSpecKeyMatchesTimingKey(t *testing.T) {
	base := config.Baseline40x4()
	cases := []struct {
		label string
		spec  TimingSpec
		sz    Sizes
		train bool
	}{
		{"ungated baseline", TimingSpec{Bench: "gzip", Machine: base},
			Sizes{Warmup: 1000, Measure: 3000, Segments: 1}, false},
		{"cic gated", TimingSpec{
			Bench: "gcc", Machine: base,
			EstSpec: confidence.SpecCIC(25), Gating: gating.PL(1),
		}, Sizes{Warmup: 1000, Measure: 3000, Segments: 2}, false},
		{"jrs", TimingSpec{
			Bench: "vortex", Machine: base,
			EstSpec: confidence.SpecJRS(14),
		}, Sizes{Warmup: 1000, Measure: 3000, Segments: 1}, false},
		{"tnt reversal", TimingSpec{
			Bench: "twolf", Machine: base, Predictor: GsharePerceptron,
			EstSpec: confidence.SpecTNT(75), Reversal: true,
		}, Sizes{Warmup: 500, Measure: 2000, Segments: 1}, false},
		{"perfect speculative-train", TimingSpec{
			Bench: "gzip", Machine: base,
			EstSpec: confidence.SpecCIC(0), Perfect: true,
		}, Sizes{Warmup: 1000, Measure: 3000, Segments: 1}, true},
		{"explicit none spec", TimingSpec{
			Bench: "gcc", Machine: base, EstSpec: confidence.SpecNone(),
		}, Sizes{Warmup: 1000, Measure: 3000, Segments: 1}, false},
		// Segments 0 normalizes to 1 on both paths.
		{"zero segments", TimingSpec{Bench: "gzip", Machine: base},
			Sizes{Warmup: 1000, Measure: 3000}, false},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			wireKey, err := jobSpecOf(tc.spec, tc.sz, tc.train).Key()
			if err != nil {
				t.Fatalf("JobSpec.Key: %v", err)
			}
			mkEst, err := tc.spec.makeEstimator()
			if err != nil {
				t.Fatal(err)
			}
			localKey := timingKey(tc.spec, mkEst, tc.sz, tc.train)
			if wireKey != localKey {
				t.Errorf("wire key %q != in-process key %q", wireKey, localKey)
			}
		})
	}
}

// TestJobSpecOfClosureFallback: the band-remapping wrappers that once
// had only a closure form, and so fell back to in-process execution,
// are now described by confidence.Spec. jobSpecOf must carry the
// wrapper across unchanged, the result must validate, and its key must
// equal the in-process key for the same configuration.
func TestJobSpecOfClosureFallback(t *testing.T) {
	sz := Sizes{Warmup: 1000, Measure: 3000, Segments: 1}
	for _, est := range []*confidence.Spec{
		confidence.SpecPromoteLow(confidence.SpecJRS(15)),
		confidence.SpecDemoteStrong(confidence.SpecCIC(0)),
	} {
		spec := TimingSpec{Bench: "gzip", Machine: config.Baseline40x4(), EstSpec: est, Reversal: true}
		js := jobSpecOf(spec, sz, false)
		if !reflect.DeepEqual(js.Estimator, est) {
			t.Errorf("%s: wire estimator %+v, want %+v", est.Kind, js.Estimator, est)
		}
		if err := js.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", est.Kind, err)
		}
		wireKey, err := js.Key()
		if err != nil {
			t.Fatalf("%s: Key: %v", est.Kind, err)
		}
		mkEst, err := spec.makeEstimator()
		if err != nil {
			t.Fatal(err)
		}
		if localKey := timingKey(spec, mkEst, sz, false); wireKey != localKey {
			t.Errorf("%s: wire key %q != in-process key %q", est.Kind, wireKey, localKey)
		}
	}
}

// TestJobSpecValidateRejects covers the hostile-wire-input guards.
func TestJobSpecValidateRejects(t *testing.T) {
	valid := func() JobSpec {
		return JobSpec{
			Bench:     "gzip",
			Machine:   config.Baseline40x4(),
			Predictor: "bimodal-gshare",
			Sizes:     JobSizes{Warmup: 1000, Measure: 3000, Segments: 1},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("baseline fixture invalid: %v", err)
	}
	cases := []struct {
		label  string
		mutate func(*JobSpec)
		want   string
	}{
		{"empty bench", func(j *JobSpec) { j.Bench = "" }, "bench"},
		{"unknown predictor", func(j *JobSpec) { j.Predictor = "oracle" }, "predictor"},
		{"bad estimator spec", func(j *JobSpec) { j.Estimator = &confidence.Spec{Kind: "quantum"} }, "unknown"},
		{"negative gating", func(j *JobSpec) { j.GateThreshold = -1 }, "gating"},
		{"zero measure", func(j *JobSpec) { j.Sizes.Measure = 0 }, "measure"},
		{"absurd warmup", func(j *JobSpec) { j.Sizes.Warmup = maxJobUops + 1 }, "uops"},
		{"zero segments", func(j *JobSpec) { j.Sizes.Segments = 0 }, "segments"},
		{"absurd segments", func(j *JobSpec) { j.Sizes.Segments = maxJobSegments + 1 }, "segments"},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			j := valid()
			tc.mutate(&j)
			err := j.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want error containing %q", err, tc.want)
			}
			if _, err := j.Key(); err == nil {
				t.Error("Key accepted an invalid job")
			}
		})
	}
}

// planSweep is a small two-bench sweep used by the CollectJobs tests.
// The benches slice controls iteration order so determinism across
// recording schedules can be pinned.
func planSweep(benches []string, lambdas []int) func() error {
	return func() error {
		for _, bench := range benches {
			for _, lambda := range lambdas {
				spec := TimingSpec{
					Bench: bench, Machine: config.Baseline40x4(),
					EstSpec: confidence.SpecCIC(lambda), Gating: gating.PL(1),
				}
				sz := Sizes{Warmup: 1000, Measure: 3000, Segments: 1}
				if _, err := runTiming(context.Background(), spec, sz); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestCollectJobsDeterministic: the same sweep visited in two different
// orders must produce identical plans — sorted keys, same jobs.
func TestCollectJobsDeterministic(t *testing.T) {
	ResetResultCache()
	defer ResetResultCache()
	lambdas := []int{0, 10, 25}
	forward, err := CollectJobs(planSweep([]string{"gzip", "gcc"}, lambdas))
	if err != nil {
		t.Fatal(err)
	}
	backward, err := CollectJobs(planSweep([]string{"gcc", "gzip"}, lambdas))
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * len(lambdas)
	if len(forward.Jobs) != want || len(forward.Keys) != want {
		t.Fatalf("plan has %d jobs / %d keys, want %d", len(forward.Jobs), len(forward.Keys), want)
	}
	if !sort.StringsAreSorted(forward.Keys) {
		t.Error("plan keys not sorted")
	}
	if !reflect.DeepEqual(forward.Keys, backward.Keys) {
		t.Errorf("plans differ across visit order:\n forward:  %v\n backward: %v", forward.Keys, backward.Keys)
	}
	if !reflect.DeepEqual(forward.Jobs, backward.Jobs) {
		t.Error("plan jobs differ across visit order")
	}
	// A recording pass must not leave zero-result garbage in the cache.
	if hits, misses := ResultCacheStats(); hits != 0 || misses != 0 {
		t.Errorf("recording pass touched the result cache: hits=%d misses=%d", hits, misses)
	}
	// Duplicate visits collapse: running the same sweep body twice in
	// one pass records each distinct job once.
	double, err := CollectJobs(func() error {
		if err := planSweep([]string{"gzip"}, lambdas)(); err != nil {
			return err
		}
		return planSweep([]string{"gzip"}, lambdas)()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(double.Jobs) != len(lambdas) {
		t.Errorf("duplicate visits not collapsed: %d jobs, want %d", len(double.Jobs), len(lambdas))
	}
}

// TestCollectJobsExcludesStored: a key with a result already on hand
// must count as Stored and stay out of the dispatch list — the
// resume-without-recomputation guarantee.
func TestCollectJobsExcludesStored(t *testing.T) {
	ResetResultCache()
	defer ResetResultCache()
	sweep := planSweep([]string{"gzip"}, []int{0, 10, 25})
	full, err := CollectJobs(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Jobs) != 3 || full.Stored != 0 {
		t.Fatalf("fresh plan: %d jobs, %d stored; want 3, 0", len(full.Jobs), full.Stored)
	}
	InjectResult(full.Keys[1], metrics.Run{Cycles: 500, Retired: 1234})
	resumed, err := CollectJobs(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stored != 1 {
		t.Errorf("Stored = %d, want 1", resumed.Stored)
	}
	if len(resumed.Jobs) != 2 {
		t.Errorf("resumed plan has %d jobs, want 2", len(resumed.Jobs))
	}
	for _, k := range resumed.Keys {
		if k == full.Keys[1] {
			t.Error("stored key re-dispatched")
		}
	}
}

// TestCollectJobsPlansAblateReversalSource: every timing job names its
// estimator by confidence.Spec, the band-remapping wrappers included,
// so planning a whole ablation sweep dispatches every distinct uncached
// job — the baseline plus four variants per benchmark — and each
// planned job re-derives the key it was filed under.
func TestCollectJobsPlansAblateReversalSource(t *testing.T) {
	ResetResultCache()
	defer ResetResultCache()
	plan, err := CollectJobs(func() error {
		_, err := AblateReversalSource(Sizes{Warmup: 1000, Measure: 3000})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * len(workload.Names()); len(plan.Jobs) != want || plan.Stored != 0 {
		t.Fatalf("plan has %d jobs, %d stored; want %d, 0", len(plan.Jobs), plan.Stored, want)
	}
	wrappers := 0
	for i, j := range plan.Jobs {
		key, err := j.Key()
		if err != nil {
			t.Fatalf("job %d: Key: %v", i, err)
		}
		if key != plan.Keys[i] {
			t.Errorf("job %d: key %q, planned under %q", i, key, plan.Keys[i])
		}
		if j.Estimator != nil && j.Estimator.Inner != nil {
			wrappers++
		}
	}
	if want := 3 * len(workload.Names()); wrappers != want {
		t.Errorf("plan has %d wrapper-estimator jobs, want %d", wrappers, want)
	}
}

// TestCollectJobsCountsLocal: no timing job is left to run locally any
// more. A sweep that mixes a wrapper estimator (formerly closure-only,
// counted local and kept off the job list) with a plain one must put
// both on the job list.
func TestCollectJobsCountsLocal(t *testing.T) {
	ResetResultCache()
	defer ResetResultCache()
	plan, err := CollectJobs(func() error {
		sz := Sizes{Warmup: 1000, Measure: 3000, Segments: 1}
		wrapped := TimingSpec{
			Bench: "gzip", Machine: config.Baseline40x4(),
			EstSpec: confidence.SpecDemoteStrong(confidence.SpecCIC(0)),
		}
		if _, err := runTiming(context.Background(), wrapped, sz); err != nil {
			return err
		}
		plain := TimingSpec{
			Bench: "gzip", Machine: config.Baseline40x4(),
			EstSpec: confidence.SpecCIC(25),
		}
		_, err := runTiming(context.Background(), plain, sz)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 2 {
		t.Fatalf("plan has %d wire jobs, want 2", len(plan.Jobs))
	}
	wrappers := 0
	for _, j := range plan.Jobs {
		if j.Estimator != nil && j.Estimator.Kind == confidence.KindDemoteStrong {
			wrappers++
		}
	}
	if wrappers != 1 {
		t.Errorf("plan has %d demote-strong jobs, want 1", wrappers)
	}
}

// TestCollectJobsRejectsConcurrent: the planner is process-wide state,
// so a nested or overlapping CollectJobs must fail fast.
func TestCollectJobsRejectsConcurrent(t *testing.T) {
	_, err := CollectJobs(func() error {
		if _, nested := CollectJobs(func() error { return nil }); nested == nil {
			t.Error("nested CollectJobs accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The flag must be released afterwards.
	if _, err := CollectJobs(func() error { return nil }); err != nil {
		t.Errorf("planner flag leaked: %v", err)
	}
}
