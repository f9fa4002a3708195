package prefilter

import "sort"

// acScanner is a classic Aho-Corasick goto/fail automaton for large literal
// sets. The root's transitions are a dense 256-entry table (including its
// self-loops, so the hot no-match path is one load per byte); deeper nodes
// keep sorted sparse edge lists and resolve misses through fail links.
// Matching is read-only after construction, so one scanner serves
// concurrent Scan calls.
type acScanner struct {
	root  [256]int32
	nodes []acNode
	// fold folds each input byte before stepping; the trie is then built
	// over canonical (folded) literals, so any case variant matches.
	fold bool
}

type acNode struct {
	edgeB  []byte
	edgeTo []int32
	fail   int32
	// out holds the lengths of every literal ending at this node, own and
	// inherited through fail links.
	out []int32
}

func newACScanner(lits [][]byte, fold bool) *acScanner {
	s := &acScanner{nodes: make([]acNode, 1), fold: fold}
	// Trie insertion.
	for _, l := range lits {
		cur := int32(0)
		for _, b := range l {
			next := s.child(cur, b)
			if next < 0 {
				next = int32(len(s.nodes))
				s.nodes = append(s.nodes, acNode{})
				n := &s.nodes[cur]
				i := sort.Search(len(n.edgeB), func(i int) bool { return n.edgeB[i] >= b })
				n.edgeB = append(n.edgeB, 0)
				copy(n.edgeB[i+1:], n.edgeB[i:])
				n.edgeB[i] = b
				n.edgeTo = append(n.edgeTo, 0)
				copy(n.edgeTo[i+1:], n.edgeTo[i:])
				n.edgeTo[i] = next
			}
			cur = next
		}
		s.nodes[cur].out = append(s.nodes[cur].out, int32(len(l)))
	}
	// BFS fail links; root's dense table doubles as its goto-with-selfloop.
	queue := make([]int32, 0, len(s.nodes))
	rootN := &s.nodes[0]
	for i, b := range rootN.edgeB {
		to := rootN.edgeTo[i]
		s.root[b] = to
		s.nodes[to].fail = 0
		queue = append(queue, to)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		n := s.nodes[u]
		for i, b := range n.edgeB {
			v := n.edgeTo[i]
			f := s.step(n.fail, b)
			s.nodes[v].fail = f
			if len(s.nodes[f].out) > 0 {
				s.nodes[v].out = append(s.nodes[v].out, s.nodes[f].out...)
			}
			queue = append(queue, v)
		}
	}
	return s
}

// child returns the trie child of node cur on byte b, or -1.
func (s *acScanner) child(cur int32, b byte) int32 {
	n := &s.nodes[cur]
	i := sort.Search(len(n.edgeB), func(i int) bool { return n.edgeB[i] >= b })
	if i < len(n.edgeB) && n.edgeB[i] == b {
		return n.edgeTo[i]
	}
	return -1
}

// step is the goto function with fail-link resolution.
func (s *acScanner) step(cur int32, b byte) int32 {
	for {
		if cur == 0 {
			return s.root[b]
		}
		if c := s.child(cur, b); c >= 0 {
			return c
		}
		cur = s.nodes[cur].fail
	}
}

func (s *acScanner) Strategy() string { return "aho-corasick" }

func (s *acScanner) Scan(data []byte, emit func(start, end int)) {
	s.ScanUntil(data, every(emit))
}

func (s *acScanner) ScanUntil(data []byte, hits Hits) {
	cur := int32(0)
	for i, b := range data {
		if s.fold {
			b = FoldByte(b)
		}
		if cur == 0 {
			cur = s.root[b]
		} else {
			cur = s.step(cur, b)
		}
		for _, ln := range s.nodes[cur].out {
			if !hits.Hit(i+1-int(ln), i+1) {
				return
			}
		}
	}
}
