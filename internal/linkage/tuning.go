package linkage

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"censuslink/internal/block"
	"censuslink/internal/census"
)

// TrainingPair is one labelled record pair for weight learning.
type TrainingPair struct {
	Old, New *census.Record
	Match    bool
}

// BuildTrainingSet assembles a labelled sample of blocked candidate pairs
// between two datasets, using a known truth mapping (e.g. from synthetic
// data or a manually linked reference). Matches are kept in full; the far
// more numerous non-matches are down-sampled to negativeRatio times the
// match count (deterministically, by seed). Candidates come from
// Candidates, so cancellation surfaces as its *PipelineError.
func BuildTrainingSet(ctx context.Context, old, new *census.Dataset, truth map[Pair]bool,
	strategies []block.Strategy, negativeRatio float64, seed int64) ([]TrainingPair, error) {
	var matches, nonMatches []TrainingPair
	_, err := Candidates(ctx, old.Records(), old.Year, new.Records(), new.Year, strategies,
		func(o, n *census.Record) {
			p := TrainingPair{Old: o, New: n, Match: truth[Pair{Old: o.ID, New: n.ID}]}
			if p.Match {
				matches = append(matches, p)
			} else {
				nonMatches = append(nonMatches, p)
			}
		})
	if err != nil {
		return nil, err
	}
	want := int(float64(len(matches)) * negativeRatio)
	if want > len(nonMatches) || negativeRatio <= 0 {
		want = len(nonMatches)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(nonMatches), func(i, j int) {
		nonMatches[i], nonMatches[j] = nonMatches[j], nonMatches[i]
	})
	return append(matches, nonMatches[:want]...), nil
}

// TuneResult reports the outcome of weight learning.
type TuneResult struct {
	Sim    SimFunc
	F1     float64 // training F-measure of the tuned function
	Rounds int     // coordinate-ascent rounds actually used
}

// TuneWeights learns a weighting vector ω for the given attribute matchers
// by coordinate ascent on the training F-measure of thresholded matching:
// starting from uniform weights, each round perturbs one weight up and down
// by a decaying step (re-normalising the vector) and keeps the best
// improvement. This is the simple supervised alternative to hand-chosen ω
// vectors that the paper points to (Richards et al., ICDM-W 2014).
//
// The threshold delta is fixed during tuning; matchers supplies the
// attribute/similarity pairs (their Weight fields are ignored).
func TuneWeights(sample []TrainingPair, matchers []AttributeMatcher, delta float64, maxRounds int) (TuneResult, error) {
	if len(sample) == 0 {
		return TuneResult{}, fmt.Errorf("linkage: empty training sample")
	}
	if len(matchers) == 0 {
		return TuneResult{}, fmt.Errorf("linkage: no matchers to tune")
	}
	if maxRounds <= 0 {
		maxRounds = 30
	}
	// Precompute the per-attribute similarity vectors once.
	vectors := make([][]float64, len(sample))
	for i, p := range sample {
		v := make([]float64, len(matchers))
		for a, m := range matchers {
			v[a] = m.Sim(p.Old.Value(m.Attr), p.New.Value(m.Attr))
		}
		vectors[i] = v
	}
	// evaluate returns the training F-measure plus the score separation
	// between matches and non-matches. F-measure is a step function of the
	// weights, so the separation acts as a tie-breaker that lets the
	// coordinate ascent cross plateaus.
	evaluate := func(w []float64) (f1, separation float64) {
		tp, fp, fn := 0, 0, 0
		matchSum, matchN := 0.0, 0
		nonSum, nonN := 0.0, 0
		for i, p := range sample {
			s := 0.0
			for a, wa := range w {
				s += wa * vectors[i][a]
			}
			if p.Match {
				matchSum += s
				matchN++
			} else {
				nonSum += s
				nonN++
			}
			predicted := s >= delta
			switch {
			case predicted && p.Match:
				tp++
			case predicted && !p.Match:
				fp++
			case !predicted && p.Match:
				fn++
			}
		}
		if matchN > 0 && nonN > 0 {
			separation = matchSum/float64(matchN) - nonSum/float64(nonN)
		}
		if tp == 0 {
			return 0, separation
		}
		prec := float64(tp) / float64(tp+fp)
		rec := float64(tp) / float64(tp+fn)
		return 2 * prec * rec / (prec + rec), separation
	}
	better := func(f1, sep, bestF1, bestSep float64) bool {
		if f1 > bestF1+1e-9 {
			return true
		}
		return f1 > bestF1-1e-9 && sep > bestSep+1e-9
	}
	normalize := func(w []float64) {
		sum := 0.0
		for _, x := range w {
			sum += x
		}
		if sum <= 0 {
			for i := range w {
				w[i] = 1 / float64(len(w))
			}
			return
		}
		for i := range w {
			w[i] /= sum
		}
	}

	weights := make([]float64, len(matchers))
	for i := range weights {
		weights[i] = 1 / float64(len(weights))
	}
	best, bestSep := evaluate(weights)
	step := 0.20
	rounds := 0
	for r := 0; r < maxRounds && step > 0.01; r++ {
		rounds = r + 1
		improved := false
		for a := range weights {
			for _, dir := range []float64{+1, -1} {
				trial := append([]float64(nil), weights...)
				trial[a] += dir * step
				if trial[a] < 0 {
					trial[a] = 0
				}
				normalize(trial)
				if f1, sep := evaluate(trial); better(f1, sep, best, bestSep) {
					best, bestSep = f1, sep
					weights = trial
					improved = true
				}
			}
		}
		if !improved {
			step /= 2
		}
	}

	tuned := SimFunc{Name: "tuned", Delta: delta, Matchers: make([]AttributeMatcher, len(matchers))}
	copy(tuned.Matchers, matchers)
	for i := range tuned.Matchers {
		tuned.Matchers[i].Weight = weights[i]
	}
	// Guard against degenerate all-zero outcomes.
	if err := tuned.Validate(); err != nil {
		return TuneResult{}, err
	}
	return TuneResult{Sim: tuned, F1: best, Rounds: rounds}, nil
}

// WeightsByAttribute renders a SimFunc's weights for reporting, ordered by
// attribute.
func WeightsByAttribute(f SimFunc) []string {
	out := make([]string, 0, len(f.Matchers))
	ms := append([]AttributeMatcher(nil), f.Matchers...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Attr < ms[j].Attr })
	for _, m := range ms {
		out = append(out, fmt.Sprintf("%s=%.2f", m.Attr, m.Weight))
	}
	return out
}

// EvaluateWeights scores an existing similarity function's F-measure on a
// labelled sample (thresholded at the function's own Delta), for comparing
// hand-chosen vectors against tuned ones.
func EvaluateWeights(sample []TrainingPair, f SimFunc) float64 {
	tp, fp, fn := 0, 0, 0
	for _, p := range sample {
		predicted := f.AggSim(p.Old, p.New) >= f.Delta
		switch {
		case predicted && p.Match:
			tp++
		case predicted && !p.Match:
			fp++
		case !predicted && p.Match:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	return 2 * prec * rec / (prec + rec)
}
