package plan

import "repro/internal/intern"

// BuiltIndices returns the flat indices vv has built so far, by key
// positions. Call it only while no reader is building one.
func BuiltIndices(vv *ViewVersion) map[string]*intern.FlatIndex {
	out := make(map[string]*intern.FlatIndex)
	vv.indices.Range(func(k, v any) bool {
		if ix := v.(*viewIndex).ix; ix != nil {
			out[k.(string)] = ix
		}
		return true
	})
	return out
}
