package prof

// aggregate.go folds a profile into per-function flat/cum totals, so
// a layer's share of CPU can be read off by symbol. Flat is the value
// attributed to samples whose *leaf* is the function; Cum counts a
// sample once for every function appearing anywhere in its stack
// (each function at most once per sample, so recursion doesn't
// double-count).

// FuncStats is one function's aggregate within a single profile.
type FuncStats struct {
	Flat int64 `json:"flat"`
	Cum  int64 `json:"cum"`
}

// Aggregate folds a profile's samples into per-function stats over
// the attributed value column (see Profile.sampleIndex).
func Aggregate(p *Profile) map[string]FuncStats {
	idx := p.sampleIndex()
	out := map[string]FuncStats{}
	if idx < 0 {
		return out
	}
	seen := map[string]bool{}
	for _, s := range p.Samples {
		if idx >= len(s.Values) {
			continue
		}
		v := s.Values[idx]
		if len(s.Stack) > 0 {
			st := out[s.Stack[0].Function]
			st.Flat += v
			out[s.Stack[0].Function] = st
		}
		clear(seen)
		for _, f := range s.Stack {
			if seen[f.Function] {
				continue
			}
			seen[f.Function] = true
			st := out[f.Function]
			st.Cum += v
			out[f.Function] = st
		}
	}
	return out
}
