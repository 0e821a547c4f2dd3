package confidence

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSpecMatchesClosureConstructors pins the property the result cache
// depends on: a Spec and the constructor call it describes build
// estimators with identical Name()s — and Name() is what cache keys
// hash, so describing a sweep's estimators by Spec keeps the keys its
// constructor-built form filed results under.
func TestSpecMatchesClosureConstructors(t *testing.T) {
	cases := []struct {
		label string
		spec  *Spec
		want  Estimator
	}{
		{"jrs-enhanced", SpecJRS(14), NewEnhancedJRS(14)},
		{"jrs-custom", SpecJRSWith(JRSConfig{Entries: 512, Lambda: 3}), NewJRS(JRSConfig{Entries: 512, Lambda: 3})},
		{"cic-default", SpecCIC(0), NewCIC(0)},
		{"cic-negative-lambda", SpecCIC(-75), NewCIC(-75)},
		{"cic-custom", SpecCICWith(CICConfig{Entries: 2048, HistoryLen: 20, Lambda: 10, Reversal: 50}),
			NewCICWith(CICConfig{Entries: 2048, HistoryLen: 20, Lambda: 10, Reversal: 50})},
		{"tnt-default", SpecTNT(75), NewTNT(75)},
		{"tnt-custom", SpecTNTWith(TNTConfig{Entries: 1024, Lambda: 30}), NewTNTWith(TNTConfig{Entries: 1024, Lambda: 30})},
		{"promote-low-jrs", SpecPromoteLow(SpecJRS(15)), PromoteLow{Inner: NewEnhancedJRS(15)}},
		{"promote-low-tnt", SpecPromoteLow(SpecTNT(75)), PromoteLow{Inner: NewTNT(75)}},
		{"demote-strong-cic", SpecDemoteStrong(SpecCICWith(CICConfig{Lambda: -75, Reversal: 50})),
			DemoteStrong{Inner: NewCICWith(CICConfig{Lambda: -75, Reversal: 50})}},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			est, err := tc.spec.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if got, want := est.Name(), tc.want.Name(); got != want {
				t.Errorf("spec-built name %q != constructor-built name %q", got, want)
			}
		})
	}
}

func TestSpecNoneAndNil(t *testing.T) {
	for _, s := range []*Spec{nil, SpecNone()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%v.Validate() = %v", s, err)
		}
		est, err := s.Build()
		if err != nil || est != nil {
			t.Errorf("%v.Build() = %v, %v; want nil, nil", s, est, err)
		}
	}
}

// TestSpecJSONRoundTrip: a Spec must survive the wire without changing
// the estimator it describes.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, spec := range []*Spec{
		SpecJRS(7),
		SpecCICWith(CICConfig{Entries: 4096, HistoryLen: 34, WeightBits: 8, Lambda: -75, Reversal: 50, TrainThreshold: 75}),
		SpecTNT(75),
		SpecNone(),
		SpecPromoteLow(SpecJRSWith(JRSConfig{Entries: 512, Lambda: 3})),
		SpecDemoteStrong(SpecCICWith(CICConfig{Lambda: -75, Reversal: 50})),
	} {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		a, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Build()
		if err != nil {
			t.Fatalf("round-tripped spec invalid: %v\n%s", err, data)
		}
		switch {
		case a == nil && b == nil:
		case a == nil || b == nil:
			t.Errorf("round trip changed nil-ness: %s", data)
		case a.Name() != b.Name():
			t.Errorf("round trip changed estimator: %q -> %q", a.Name(), b.Name())
		}
	}
}

// TestSpecValidateRejects covers the hostile-input guards: these
// configurations must fail validation, never panic a constructor.
func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		label string
		spec  *Spec
		want  string
	}{
		{"unknown kind", &Spec{Kind: "quantum"}, "unknown"},
		{"kind none with config", &Spec{Kind: KindNone, CIC: &CICConfig{}}, "no config"},
		{"kind cic missing config", &Spec{Kind: KindCIC}, "needs exactly"},
		{"two configs", &Spec{Kind: KindCIC, CIC: &CICConfig{}, TNT: &TNTConfig{}}, "needs exactly"},
		{"negative entries", SpecCICWith(CICConfig{Entries: -1}), "entries"},
		{"huge entries", SpecCICWith(CICConfig{Entries: 1 << 21}), "entries"},
		{"history too long", SpecTNTWith(TNTConfig{HistoryLen: 65}), "history"},
		{"negative history", SpecJRSWith(JRSConfig{HistoryLen: -1}), "history"},
		{"weight bits too small", SpecCICWith(CICConfig{WeightBits: 1}), "weight bits"},
		{"weight bits too big", SpecCICWith(CICConfig{WeightBits: 16}), "weight bits"},
		{"jrs counter bits", SpecJRSWith(JRSConfig{CounterBits: 9}), "counter bits"},
		{"jrs lambda negative", SpecJRSWith(JRSConfig{Lambda: -2}), "lambda"},
		{"jrs lambda over counter range", SpecJRSWith(JRSConfig{CounterBits: 2, Lambda: 4}), "lambda"},
		{"wrapper missing inner", &Spec{Kind: KindPromoteLow}, "needs exactly the inner"},
		{"wrapper with config", &Spec{Kind: KindDemoteStrong, Inner: SpecCIC(0), CIC: &CICConfig{}}, "needs exactly the inner"},
		{"wrapper of none", SpecDemoteStrong(SpecNone()), "inner spec"},
		{"nested wrappers", SpecPromoteLow(SpecDemoteStrong(SpecCIC(0))), "inner spec"},
		{"wrapper of invalid leaf", SpecPromoteLow(SpecTNTWith(TNTConfig{HistoryLen: 65})), "history"},
		{"leaf with inner", &Spec{Kind: KindCIC, CIC: &CICConfig{}, Inner: SpecCIC(0)}, "no inner"},
		{"none with inner", &Spec{Kind: KindNone, Inner: SpecCIC(0)}, "no inner"},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want error containing %q", err, tc.want)
			}
			if _, err := tc.spec.Build(); err == nil {
				t.Error("Build accepted an invalid spec")
			}
		})
	}
}

// TestSpecBuildDoesNotPanic sweeps the validation boundary: any spec
// that passes Validate must construct without panicking (the
// constructors panic on geometry they reject; Validate must be at
// least as strict).
func TestSpecBuildDoesNotPanic(t *testing.T) {
	for entries := -1; entries <= 2; entries++ {
		for hist := -1; hist <= 2; hist++ {
			for bits := -1; bits <= 3; bits++ {
				spec := SpecCICWith(CICConfig{Entries: entries, HistoryLen: hist, WeightBits: bits})
				if spec.Validate() != nil {
					continue
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("Build panicked for validated spec entries=%d hist=%d bits=%d: %v",
								entries, hist, bits, r)
						}
					}()
					spec.Build() //nolint:errcheck // panic is the failure mode under test
				}()
			}
		}
	}
}
