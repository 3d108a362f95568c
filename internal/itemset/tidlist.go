package itemset

// Tidlist is a sorted list of transaction ids: the vertical layout of the
// Eclat engines, where an itemset's support is the length of the
// intersection of its items' tidlists.
type Tidlist []int32

// SizeBytes reports the tidlist's serialized size to the shuffle and
// collect cost models.
func (t Tidlist) SizeBytes() int64 { return int64(4*len(t)) + 4 }

// Intersect returns the ids present in both t and u.
func (t Tidlist) Intersect(u Tidlist) Tidlist {
	out := make(Tidlist, 0, min(len(t), len(u)))
	i, j := 0, 0
	for i < len(t) && j < len(u) {
		switch {
		case t[i] < u[j]:
			i++
		case t[i] > u[j]:
			j++
		default:
			out = append(out, t[i])
			i++
			j++
		}
	}
	return out
}

// Merge returns the sorted union of t and u, keeping a shared id once.
func (t Tidlist) Merge(u Tidlist) Tidlist {
	out := make(Tidlist, 0, len(t)+len(u))
	i, j := 0, 0
	for i < len(t) && j < len(u) {
		switch {
		case t[i] < u[j]:
			out = append(out, t[i])
			i++
		case t[i] > u[j]:
			out = append(out, u[j])
			j++
		default:
			out = append(out, t[i])
			i++
			j++
		}
	}
	out = append(out, t[i:]...)
	return append(out, u[j:]...)
}
