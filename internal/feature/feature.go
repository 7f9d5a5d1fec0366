// Package feature maps raw interactions onto the sparse one-hot feature
// space of the paper's Eq. (1): a static block (user one-hot, candidate
// object one-hot, optional side-information one-hots) and a dynamic block
// (the chronological sequence of previously interacted objects).
//
// All models in this repository consume Instance values and use Space to
// translate them into global feature indices, so the input encoding is
// identical across SeqFM and every baseline — exactly the paper's protocol
// where "set-category features are used as input for all FM-based baseline
// models" (§V-C).
package feature

import "fmt"

// Pad is the index used for padding positions in fixed-length dynamic
// sequences. Embedding gathers translate it to a zero vector, matching the
// paper's zero-vector padding of short sequences (§III).
const Pad = -1

// Instance is one prediction case: a (user, target object) pair, the user's
// chronological interaction history strictly before the target, optional
// side attributes, and the supervision label (rating for regression, 1 for
// observed interactions, 0 for sampled negatives).
type Instance struct {
	User   int
	Target int
	// Hist lists previously interacted object ids, oldest first. It is the
	// unpadded dynamic feature sequence; models truncate/pad it to their
	// configured maximum length n. via Space.PadHist. Models only read it;
	// the instances of a data.Split share one array per user, so Hist must
	// be treated as read-only.
	Hist []int
	// UserAttr and TargetAttr are optional static side features (e.g. user
	// group, object category); Pad means absent.
	UserAttr   int
	TargetAttr int
	Label      float64
}

// Space describes the cardinalities of the one-hot blocks. The static block
// concatenates [users | objects | user attrs | object attrs]; the dynamic
// block is the object vocabulary.
type Space struct {
	NumUsers     int
	NumObjects   int
	NumUserAttrs int // 0 if the dataset carries no user side information
	NumItemAttrs int // 0 if the dataset carries no object side information
}

// StaticDim returns m°, the width of the static one-hot block.
func (s Space) StaticDim() int {
	return s.NumUsers + s.NumObjects + s.NumUserAttrs + s.NumItemAttrs
}

// DynamicDim returns m., the width of the dynamic one-hot block.
func (s Space) DynamicDim() int { return s.NumObjects }

// NumStaticFields returns n°, the number of static one-hot rows per
// instance: user, candidate, plus one per present attribute block.
func (s Space) NumStaticFields() int {
	n := 2
	if s.NumUserAttrs > 0 {
		n++
	}
	if s.NumItemAttrs > 0 {
		n++
	}
	return n
}

// StaticIndices returns the global static feature indices for inst, one per
// static field, in the fixed order user, candidate, user-attr, object-attr.
// The result length always equals NumStaticFields.
func (s Space) StaticIndices(inst Instance) []int {
	return s.StaticIndicesInto(nil, inst)
}

// StaticIndicesInto is StaticIndices into dst's backing array (grown if too
// small), for callers that score in a loop.
func (s Space) StaticIndicesInto(dst []int, inst Instance) []int {
	if inst.User < 0 || inst.User >= s.NumUsers {
		panic(fmt.Sprintf("feature: user %d outside [0,%d)", inst.User, s.NumUsers))
	}
	if inst.Target < 0 || inst.Target >= s.NumObjects {
		panic(fmt.Sprintf("feature: target %d outside [0,%d)", inst.Target, s.NumObjects))
	}
	dst = append(dst[:0], inst.User, s.NumUsers+inst.Target)
	off := s.NumUsers + s.NumObjects
	if s.NumUserAttrs > 0 {
		if inst.UserAttr < 0 || inst.UserAttr >= s.NumUserAttrs {
			panic(fmt.Sprintf("feature: user attr %d outside [0,%d)", inst.UserAttr, s.NumUserAttrs))
		}
		dst = append(dst, off+inst.UserAttr)
		off += s.NumUserAttrs
	}
	if s.NumItemAttrs > 0 {
		if inst.TargetAttr < 0 || inst.TargetAttr >= s.NumItemAttrs {
			panic(fmt.Sprintf("feature: target attr %d outside [0,%d)", inst.TargetAttr, s.NumItemAttrs))
		}
		dst = append(dst, off+inst.TargetAttr)
	}
	return dst
}

// PadHist returns the dynamic sequence truncated to the most recent n
// entries and left-padded with Pad to exactly length n, the construction of
// G. in §III ("repeatedly add a padding vector to the top").
func (s Space) PadHist(hist []int, n int) []int {
	if n <= 0 {
		panic(fmt.Sprintf("feature: PadHist length %d", n))
	}
	out := make([]int, n)
	start := len(hist) - n
	for i := 0; i < n; i++ {
		src := start + i
		if src < 0 {
			out[i] = Pad
		} else {
			out[i] = hist[src]
		}
	}
	return out
}

// AllIndices returns the concatenated static and dynamic global indices of
// inst over the full m = m° + m. space, with dynamic indices offset by
// StaticDim. Padding entries are omitted. This is the flat "set-category"
// encoding traditional FM baselines consume (Figure 1, upper part).
func (s Space) AllIndices(inst Instance) []int {
	idx := s.StaticIndices(inst)
	off := s.StaticDim()
	for _, h := range inst.Hist {
		if h >= 0 {
			idx = append(idx, off+h)
		}
	}
	return idx
}

// TotalDim returns m = m° + m., the full sparse feature width of Eq. (1).
func (s Space) TotalDim() int { return s.StaticDim() + s.DynamicDim() }
