package data

import (
	"fmt"
	"math"
	"math/rand"

	"seqfm/internal/tensor"
)

// RatingConfig drives the synthetic explicit-rating generator standing in
// for the Amazon Beauty and Toys datasets (Table I, regression task).
//
// Ratings follow the classic matrix-factorization decomposition — global
// mean + user bias + item bias + latent affinity — which is the signal FM,
// HOFM and NFM capture. On top of that sits a sequential drift term: a user
// who recently rated items similar to the target rates it higher (taste
// momentum). That drift is the signal that separates SeqFM and RRN in
// Table IV; its weight is DriftWeight.
type RatingConfig struct {
	Name     string
	Seed     int64
	NumUsers int
	NumItems int
	// LatentDim is the dimensionality of the ground-truth factors.
	LatentDim int
	// MinLen/MaxLen bound per-user rating counts. Amazon logs are short
	// (≈9 ratings/user in Table I).
	MinLen, MaxLen int
	// DriftWeight scales the sequential taste-momentum term.
	DriftWeight float64
	// DriftWindow is how many recent items contribute to the momentum.
	DriftWindow int
	// NoiseStd is the observation noise before clipping to [1,5].
	NoiseStd float64
	// RoundRatings snaps outputs to integer stars like Amazon.
	RoundRatings bool
}

// Validate reports configuration errors.
func (c RatingConfig) Validate() error {
	switch {
	case c.NumUsers < 1 || c.NumItems < 2:
		return fmt.Errorf("data: rating config %q: need >=1 user and >=2 items", c.Name)
	case c.LatentDim < 1:
		return fmt.Errorf("data: rating config %q: latent dim %d", c.Name, c.LatentDim)
	case c.MinLen < 3 || c.MaxLen < c.MinLen:
		return fmt.Errorf("data: rating config %q: bad length range [%d,%d]", c.Name, c.MinLen, c.MaxLen)
	case c.DriftWindow < 1:
		return fmt.Errorf("data: rating config %q: drift window %d", c.Name, c.DriftWindow)
	case c.NoiseStd < 0:
		return fmt.Errorf("data: rating config %q: noise %v", c.Name, c.NoiseStd)
	}
	return nil
}

// GenerateRating builds a deterministic synthetic rating log for cfg.
func GenerateRating(cfg RatingConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	scale := 1 / math.Sqrt(float64(cfg.LatentDim))
	userF := randMat(rng, cfg.NumUsers, cfg.LatentDim, scale)
	itemF := randMat(rng, cfg.NumItems, cfg.LatentDim, scale)
	userB := randVec(rng, cfg.NumUsers, 0.3)
	itemB := randVec(rng, cfg.NumItems, 0.3)
	const globalMean = 3.6 // Amazon-like mean star rating

	d := &Dataset{
		Name:       cfg.Name,
		Task:       Regression,
		NumUsers:   cfg.NumUsers,
		NumObjects: cfg.NumItems,
		Users:      make([][]Interaction, cfg.NumUsers),
	}

	for u := 0; u < cfg.NumUsers; u++ {
		n := cfg.MinLen + rng.Intn(cfg.MaxLen-cfg.MinLen+1)
		log := make([]Interaction, 0, n)
		recent := make([]int, 0, cfg.DriftWindow)
		for t := 0; t < n; t++ {
			// Users preferentially pick items similar to what they rated
			// recently: sample a few candidates, keep the most similar one.
			item := rng.Intn(cfg.NumItems)
			if len(recent) > 0 {
				best, bestSim := item, math.Inf(-1)
				for k := 0; k < 4; k++ {
					cand := rng.Intn(cfg.NumItems)
					sim := tensor.DotVec(itemF[cand], itemF[recent[len(recent)-1]])
					if sim > bestSim {
						best, bestSim = cand, sim
					}
				}
				if rng.Float64() < 0.6 {
					item = best
				}
			}

			drift := 0.0
			if len(recent) > 0 {
				for _, r := range recent {
					drift += tensor.DotVec(itemF[item], itemF[r])
				}
				drift /= float64(len(recent))
			}

			r := globalMean + userB[u] + itemB[item] +
				tensor.DotVec(userF[u], itemF[item]) +
				cfg.DriftWeight*drift +
				cfg.NoiseStd*rng.NormFloat64()
			if cfg.RoundRatings {
				r = math.Round(r)
			}
			r = clamp(r, 1, 5)
			log = append(log, Interaction{Object: item, Rating: r, Time: int64(t)})

			recent = append(recent, item)
			if len(recent) > cfg.DriftWindow {
				recent = recent[1:]
			}
		}
		d.Users[u] = log
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func randMat(rng *rand.Rand, rows, cols int, std float64) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = randVec(rng, cols, std)
	}
	return m
}

func randVec(rng *rand.Rand, n int, std float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = std * rng.NormFloat64()
	}
	return v
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BeautyConfig returns the Amazon Beauty stand-in; scale=1 matches Table I
// (22,363 users, 12,101 items, ~198K ratings, ~8.9 ratings/user).
func BeautyConfig(scale float64, seed int64) RatingConfig {
	return RatingConfig{
		Name:         "beauty-synth",
		Seed:         seed,
		NumUsers:     scaled(22363, scale),
		NumItems:     scaled(12101, scale),
		LatentDim:    8,
		MinLen:       5,
		MaxLen:       13, // mean ≈ 9 ratings per user
		DriftWeight:  1.2,
		DriftWindow:  3,
		NoiseStd:     0.45,
		RoundRatings: true,
	}
}

// ToysConfig returns the Amazon Toys stand-in; scale=1 matches Table I
// (19,412 users, 11,924 items, ~168K ratings, ~8.6 ratings/user). Toys
// ratings have lower variance than Beauty in the paper (MAE 0.70 vs 0.89
// for SeqFM), so the noise is smaller.
func ToysConfig(scale float64, seed int64) RatingConfig {
	return RatingConfig{
		Name:         "toys-synth",
		Seed:         seed,
		NumUsers:     scaled(19412, scale),
		NumItems:     scaled(11924, scale),
		LatentDim:    8,
		MinLen:       5,
		MaxLen:       13,
		DriftWeight:  1.0,
		DriftWindow:  3,
		NoiseStd:     0.3,
		RoundRatings: true,
	}
}
