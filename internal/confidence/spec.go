package confidence

import "fmt"

// Spec is a declarative, JSON-serializable estimator description: the
// one way a timing simulation names its confidence estimator. A Spec
// travels inside distributed job batches (internal/dist), so it must
// round-trip through JSON without losing any knob that changes
// simulated behaviour — exactly the knobs Name() encodes into cache
// keys.
//
// A leaf kind carries exactly the config pointer matching Kind (none
// for KindNone). A wrapper kind (KindPromoteLow, KindDemoteStrong)
// carries only Inner, which must be a leaf estimator, so a decoded Spec
// is at most two levels deep. Use the Spec* constructors rather than
// building the struct by hand.
type Spec struct {
	// Kind selects the estimator: "none", "jrs", "cic", "tnt", or a
	// band-remapping wrapper, "promote-low" or "demote-strong".
	Kind string `json:"kind"`
	// JRS, CIC and TNT carry the family's full configuration. The
	// config structs already default zero fields in their constructors;
	// a Spec freezes the caller's literal values and lets New* apply
	// the same defaulting on every machine, so a Spec built on the
	// coordinator and one decoded on a worker construct byte-identical
	// estimators.
	JRS *JRSConfig `json:"jrs,omitempty"`
	CIC *CICConfig `json:"cic,omitempty"`
	TNT *TNTConfig `json:"tnt,omitempty"`
	// Inner is the estimator a wrapper kind remaps the bands of.
	Inner *Spec `json:"inner,omitempty"`
}

// Spec kinds.
const (
	KindNone = "none"
	KindJRS  = "jrs"
	KindCIC  = "cic"
	KindTNT  = "tnt"

	// KindPromoteLow wraps Inner in PromoteLow.
	KindPromoteLow = "promote-low"
	// KindDemoteStrong wraps Inner in DemoteStrong.
	KindDemoteStrong = "demote-strong"
)

// SpecNone describes "no estimator" (the ungated baseline runs).
func SpecNone() *Spec { return &Spec{Kind: KindNone} }

// SpecJRS describes the paper's baseline estimator: enhanced JRS with
// default geometry and threshold lambda (NewEnhancedJRS).
func SpecJRS(lambda int) *Spec {
	return &Spec{Kind: KindJRS, JRS: &JRSConfig{Lambda: lambda, Enhanced: true}}
}

// SpecJRSWith describes a fully configured JRS estimator (NewJRS).
func SpecJRSWith(cfg JRSConfig) *Spec { return &Spec{Kind: KindJRS, JRS: &cfg} }

// SpecCIC describes the paper's default 4 KB perceptron estimator with
// threshold lambda and reversal disabled (NewCIC).
func SpecCIC(lambda int) *Spec {
	return &Spec{Kind: KindCIC, CIC: &CICConfig{Lambda: lambda, Reversal: DisableReversal}}
}

// SpecCICWith describes a fully configured CIC estimator (NewCICWith).
func SpecCICWith(cfg CICConfig) *Spec { return &Spec{Kind: KindCIC, CIC: &cfg} }

// SpecTNT describes a perceptron_tnt estimator with default geometry
// and |y| threshold lambda (NewTNT).
func SpecTNT(lambda int) *Spec {
	return &Spec{Kind: KindTNT, TNT: &TNTConfig{Lambda: lambda}}
}

// SpecTNTWith describes a fully configured TNT estimator (NewTNTWith).
func SpecTNTWith(cfg TNTConfig) *Spec { return &Spec{Kind: KindTNT, TNT: &cfg} }

// SpecPromoteLow describes PromoteLow{Inner: inner}: every low
// estimate of inner becomes StrongLow.
func SpecPromoteLow(inner *Spec) *Spec { return &Spec{Kind: KindPromoteLow, Inner: inner} }

// SpecDemoteStrong describes DemoteStrong{Inner: inner}: every
// StrongLow estimate of inner becomes WeakLow.
func SpecDemoteStrong(inner *Spec) *Spec { return &Spec{Kind: KindDemoteStrong, Inner: inner} }

// Validate checks that the Spec is internally consistent: a known
// kind, the matching config present, and the others absent. A wrapper
// kind must carry a leaf estimator as Inner and nothing else, which
// bounds the depth of any Spec that passes. A nil Spec is valid and
// means "no estimator".
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.Kind == KindPromoteLow || s.Kind == KindDemoteStrong {
		if s.Inner == nil || s.JRS != nil || s.CIC != nil || s.TNT != nil {
			return fmt.Errorf("confidence: spec kind %q needs exactly the inner spec", s.Kind)
		}
		if k := s.Inner.Kind; k != KindJRS && k != KindCIC && k != KindTNT {
			return fmt.Errorf("confidence: spec kind %q needs a jrs, cic or tnt inner spec, got %q", s.Kind, k)
		}
		return s.Inner.Validate()
	}
	if s.Inner != nil {
		return fmt.Errorf("confidence: spec kind %q must carry no inner spec", s.Kind)
	}
	set := 0
	for _, p := range []bool{s.JRS != nil, s.CIC != nil, s.TNT != nil} {
		if p {
			set++
		}
	}
	switch s.Kind {
	case KindNone:
		if set != 0 {
			return fmt.Errorf("confidence: spec kind %q must carry no config", s.Kind)
		}
	case KindJRS:
		if s.JRS == nil || set != 1 {
			return fmt.Errorf("confidence: spec kind %q needs exactly the jrs config", s.Kind)
		}
		if s.JRS.CounterBits < 0 || s.JRS.CounterBits > 8 {
			return fmt.Errorf("confidence: spec jrs counter bits %d outside [0,8]", s.JRS.CounterBits)
		}
		// Lambda must fit the counter range (NewJRS panics otherwise);
		// apply the constructor's zero-means-default before bounding.
		bits := s.JRS.CounterBits
		if bits == 0 {
			bits = 4
		}
		if maxL := 1<<bits - 1; s.JRS.Lambda < 0 || s.JRS.Lambda > maxL {
			return fmt.Errorf("confidence: spec jrs lambda %d outside [0,%d]", s.JRS.Lambda, maxL)
		}
		if err := checkGeometry("jrs", s.JRS.Entries, s.JRS.HistoryLen, 0); err != nil {
			return err
		}
	case KindCIC:
		if s.CIC == nil || set != 1 {
			return fmt.Errorf("confidence: spec kind %q needs exactly the cic config", s.Kind)
		}
		if err := checkGeometry("cic", s.CIC.Entries, s.CIC.HistoryLen, s.CIC.WeightBits); err != nil {
			return err
		}
	case KindTNT:
		if s.TNT == nil || set != 1 {
			return fmt.Errorf("confidence: spec kind %q needs exactly the tnt config", s.Kind)
		}
		if err := checkGeometry("tnt", s.TNT.Entries, s.TNT.HistoryLen, s.TNT.WeightBits); err != nil {
			return err
		}
	default:
		return fmt.Errorf("confidence: unknown spec kind %q", s.Kind)
	}
	return nil
}

// maxSpecEntries bounds table sizes a Spec may request. Specs arrive
// over the wire from distributed batches, so hostile or corrupt values
// must fail validation instead of panicking a constructor or
// allocating an absurd table. The paper's largest geometry is 8K
// entries; a megabyte-scale table is already far beyond any sweep.
const maxSpecEntries = 1 << 20

// checkGeometry validates the table-geometry knobs shared by the
// estimator families. Zero always means "use the constructor default".
func checkGeometry(kind string, entries, histLen, weightBits int) error {
	if entries < 0 || entries > maxSpecEntries {
		return fmt.Errorf("confidence: spec %s entries %d outside [0,%d]", kind, entries, maxSpecEntries)
	}
	if histLen < 0 || histLen > 64 {
		return fmt.Errorf("confidence: spec %s history %d outside [0,64]", kind, histLen)
	}
	if weightBits != 0 && (weightBits < 2 || weightBits > 15) {
		return fmt.Errorf("confidence: spec %s weight bits %d outside [2,15]", kind, weightBits)
	}
	return nil
}

// Build constructs the described estimator. A nil Spec and KindNone
// both return (nil, nil): the caller runs without an estimator.
func (s *Spec) Build() (Estimator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s == nil || s.Kind == KindNone {
		return nil, nil
	}
	return s.build(), nil
}

// build constructs a validated, non-none Spec's estimator.
func (s *Spec) build() Estimator {
	switch s.Kind {
	case KindPromoteLow:
		return PromoteLow{Inner: s.Inner.build()}
	case KindDemoteStrong:
		return DemoteStrong{Inner: s.Inner.build()}
	case KindJRS:
		return NewJRS(*s.JRS)
	case KindCIC:
		return NewCICWith(*s.CIC)
	default: // KindTNT; Validate rejected everything else
		return NewTNTWith(*s.TNT)
	}
}
