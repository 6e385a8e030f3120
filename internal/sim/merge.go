package sim

// MergeByTime merges logs, each in time order (a cell records at its
// kernel's Now), into one slice ordered by (time, log index, position):
// exactly a stable sort by time of their concatenation, the parallel
// engine's determinism rule for every per-cell record (delivery logs and
// trace rings alike). A heap of the logs' unmerged tails, keyed on (head
// time, log index), picks each next record. The inputs are left as they
// are.
func MergeByTime[T any](logs [][]T, at func(*T) Time) []T {
	type tail struct {
		recs []T
		log  int
	}
	total := 0
	var h []tail
	for i, recs := range logs {
		total += len(recs)
		if len(recs) > 0 {
			h = append(h, tail{recs, i})
		}
	}
	less := func(i, j int) bool {
		a, b := at(&h[i].recs[0]), at(&h[j].recs[0])
		return a < b || a == b && h[i].log < h[j].log
	}
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(h) && less(l, m) {
				m = l
			}
			if r := 2*i + 2; r < len(h) && less(r, m) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]T, 0, total)
	for len(h) > 0 {
		out = append(out, h[0].recs[0])
		if h[0].recs = h[0].recs[1:]; len(h[0].recs) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}
