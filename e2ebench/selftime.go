package main

import (
	"sort"

	"tpcxiot/internal/telemetry"
)

// rootFold sums the traces of one root operation name.
type rootFold struct {
	count  int                // traces
	rootNs float64            // summed root durations
	self   map[string]float64 // summed self-time per span name, ns
}

// foldSelfTimes splits every trace's root interval among its spans and
// sums the shares per root name and span name.
//
// A span's self-time is the part of its interval that none of its children
// cover. Children run in parallel under some spans (replicate.N under
// replication.fanout), so an instant can be self-time of several spans at
// once; such an instant is divided equally among them. Each child is first
// clipped to its parent's interval: a straggler replica still applying
// after the quorum acknowledged is not on the operation's path. Spans whose
// parent is missing from the trace hang off the root. The shares of one
// trace therefore add up to exactly its root duration.
func foldSelfTimes(traces []*telemetry.Trace) map[string]*rootFold {
	out := map[string]*rootFold{}
	for _, tr := range traces {
		root := tr.Root()
		if root.SpanID == 0 {
			continue
		}
		f := out[root.Name]
		if f == nil {
			f = &rootFold{self: map[string]float64{}}
			out[root.Name] = f
		}
		f.count++
		f.rootNs += float64(root.DurNs)
		for name, ns := range selfTimes(tr.Spans, root) {
			f.self[name] += ns
		}
	}
	return out
}

// node is one span of a trace with the spans it parents.
type node struct {
	name     string
	lo, hi   int64
	children []int
}

// selfTimes returns one trace's self-time per span name, in ns. The root's
// interval is cut at every span boundary; each piece goes to the spans
// that cover it while none of their children do. Descending only into
// children that cover a piece clips every child to its parent.
func selfTimes(spans []telemetry.SpanRecord, root telemetry.SpanRecord) map[string]float64 {
	index := make(map[uint64]int, len(spans))
	nodes := make([]node, len(spans))
	rootIdx := -1
	for i, s := range spans {
		index[s.SpanID] = i
		nodes[i] = node{name: s.Name, lo: s.StartNs, hi: s.StartNs + s.DurNs}
		if s.SpanID == root.SpanID {
			rootIdx = i
		}
	}
	for i, s := range spans {
		if i == rootIdx {
			continue
		}
		p, ok := index[s.ParentID]
		if !ok || p == i {
			p = rootIdx
		}
		nodes[p].children = append(nodes[p].children, i)
	}
	r := nodes[rootIdx]
	bounds := []int64{r.lo, r.hi}
	for _, n := range nodes {
		for _, b := range []int64{n.lo, n.hi} {
			if b > r.lo && b < r.hi {
				bounds = append(bounds, b)
			}
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

	self := map[string]float64{}
	var leaves []int
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		if hi == lo {
			continue
		}
		leaves = activeLeaves(nodes, rootIdx, lo, hi, leaves[:0])
		share := float64(hi-lo) / float64(len(leaves))
		for _, l := range leaves {
			self[nodes[l].name] += share
		}
	}
	return self
}

// activeLeaves appends to dst the spans under i that cover [lo, hi) while
// none of their children do.
func activeLeaves(nodes []node, i int, lo, hi int64, dst []int) []int {
	covering := false
	for _, c := range nodes[i].children {
		if nodes[c].lo <= lo && nodes[c].hi >= hi {
			covering = true
			dst = activeLeaves(nodes, c, lo, hi, dst)
		}
	}
	if !covering {
		dst = append(dst, i)
	}
	return dst
}
