package ml

import (
	"encoding/json"
	"fmt"
	"io"
)

// Model serialization. The paper's pipeline trains models centrally,
// exports them (to ONNX), and serves them from a low-latency inference
// system on the VM request path (§5). The JSON forms here play the ONNX
// role: a trained forest or GBM round-trips through an opaque byte
// stream, and the serving side rebuilds an identical predictor.

// jsonNode is the wire form of one tree node, flattened depth-first.
type jsonNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int     `json:"l"` // index into the node array, -1 for none
	Right     int     `json:"r"`
	Leaf      bool    `json:"leaf"`
	LeafID    int     `json:"id,omitempty"`
	Value     float64 `json:"v"`
}

// jsonTree is the wire form of a Tree.
type jsonTree struct {
	Nodes    []jsonNode `json:"nodes"`
	Features int        `json:"features"`
	Leaves   int        `json:"leaves"`
}

func flattenTree(t *Tree) jsonTree {
	jt := jsonTree{Features: t.features, Leaves: len(t.leaves)}
	var walk func(n *node) int
	walk = func(n *node) int {
		idx := len(jt.Nodes)
		jt.Nodes = append(jt.Nodes, jsonNode{})
		jn := jsonNode{
			Feature:   n.feature,
			Threshold: n.threshold,
			Left:      -1,
			Right:     -1,
			Leaf:      n.leaf,
			LeafID:    n.leafID,
			Value:     n.value,
		}
		if !n.leaf {
			jn.Left = walk(n.left)
			jn.Right = walk(n.right)
		}
		jt.Nodes[idx] = jn
		return idx
	}
	walk(t.root)
	return jt
}

// maxImportFeatures bounds the input width an imported tree may declare.
const maxImportFeatures = 1 << 16

// rebuildTree checks and rebuilds one tree. The node array must be the
// pre-order walk flattenTree writes — an internal node's left child
// directly after it, its right child directly after the left subtree —
// which rules out cycles and shared subtrees and leaves no node
// unreachable. Leaf ids must number the leaves exactly once, and every
// split must read a feature below the declared width, so the tree
// predicts on any input of that width.
func rebuildTree(jt jsonTree) (*Tree, error) {
	if len(jt.Nodes) == 0 {
		return nil, fmt.Errorf("ml: empty tree")
	}
	if jt.Features < 0 || jt.Features > maxImportFeatures {
		return nil, fmt.Errorf("ml: tree width %d outside [0, %d]", jt.Features, maxImportFeatures)
	}
	if jt.Leaves < 1 || jt.Leaves > len(jt.Nodes) {
		return nil, fmt.Errorf("ml: tree declares %d leaves for %d nodes", jt.Leaves, len(jt.Nodes))
	}
	t := &Tree{features: jt.Features, leaves: make([]*node, jt.Leaves)}
	next := 0 // index of the next node in pre-order
	var build func() (*node, error)
	build = func() (*node, error) {
		idx := next
		if idx >= len(jt.Nodes) {
			return nil, fmt.Errorf("ml: child node %d past the end of the %d-node tree", idx, len(jt.Nodes))
		}
		next++
		jn := jt.Nodes[idx]
		n := &node{
			feature:   jn.Feature,
			threshold: jn.Threshold,
			leaf:      jn.Leaf,
			leafID:    jn.LeafID,
			value:     jn.Value,
		}
		if n.leaf {
			if n.leafID < 0 || n.leafID >= len(t.leaves) || t.leaves[n.leafID] != nil {
				return nil, fmt.Errorf("ml: leaf id %d out of range or repeated", n.leafID)
			}
			t.leaves[n.leafID] = n
			return n, nil
		}
		if n.feature < 0 || n.feature >= t.features {
			return nil, fmt.Errorf("ml: node %d splits on feature %d of a %d-wide tree", idx, n.feature, t.features)
		}
		var err error
		if jn.Left != next {
			return nil, fmt.Errorf("ml: node %d has left child %d, want %d in pre-order", idx, jn.Left, next)
		}
		if n.left, err = build(); err != nil {
			return nil, err
		}
		if jn.Right != next {
			return nil, fmt.Errorf("ml: node %d has right child %d, want %d in pre-order", idx, jn.Right, next)
		}
		if n.right, err = build(); err != nil {
			return nil, err
		}
		return n, nil
	}
	root, err := build()
	if err != nil {
		return nil, err
	}
	if next != len(jt.Nodes) {
		return nil, fmt.Errorf("ml: %d of %d nodes unreachable from the root", len(jt.Nodes)-next, len(jt.Nodes))
	}
	t.root = root
	for i, leaf := range t.leaves {
		if leaf == nil {
			return nil, fmt.Errorf("ml: leaf %d missing", i)
		}
	}
	return t, nil
}

// rebuildTrees rebuilds an ensemble's trees, which must all read the
// same input width.
func rebuildTrees(jts []jsonTree) ([]*Tree, error) {
	trees := make([]*Tree, 0, len(jts))
	for i, jt := range jts {
		t, err := rebuildTree(jt)
		if err != nil {
			return nil, err
		}
		if len(trees) > 0 && t.features != trees[0].features {
			return nil, fmt.Errorf("ml: tree %d reads %d features, tree 0 reads %d", i, t.features, trees[0].features)
		}
		trees = append(trees, t)
	}
	return trees, nil
}

// jsonForest is the wire form of a Forest.
type jsonForest struct {
	Kind  string     `json:"kind"`
	Trees []jsonTree `json:"trees"`
}

// ExportForest writes the forest to w.
func ExportForest(w io.Writer, f *Forest) error {
	jf := jsonForest{Kind: "forest"}
	for _, t := range f.trees {
		jf.Trees = append(jf.Trees, flattenTree(t))
	}
	return json.NewEncoder(w).Encode(jf)
}

// ImportForest reads a forest written by ExportForest.
func ImportForest(r io.Reader) (*Forest, error) {
	var jf jsonForest
	if err := json.NewDecoder(r).Decode(&jf); err != nil {
		return nil, fmt.Errorf("ml: decoding forest: %w", err)
	}
	if jf.Kind != "forest" {
		return nil, fmt.Errorf("ml: expected forest, got %q", jf.Kind)
	}
	if len(jf.Trees) == 0 {
		return nil, fmt.Errorf("ml: forest has no trees")
	}
	trees, err := rebuildTrees(jf.Trees)
	if err != nil {
		return nil, err
	}
	return &Forest{trees: trees}, nil
}

// jsonGBM is the wire form of a GBM.
type jsonGBM struct {
	Kind     string     `json:"kind"`
	Init     float64    `json:"init"`
	LR       float64    `json:"lr"`
	Quantile float64    `json:"quantile"`
	Trees    []jsonTree `json:"trees"`
}

// ExportGBM writes the model to w.
func ExportGBM(w io.Writer, m *GBM) error {
	jg := jsonGBM{Kind: "gbm", Init: m.init, LR: m.lr, Quantile: m.quantile}
	for _, t := range m.trees {
		jg.Trees = append(jg.Trees, flattenTree(t))
	}
	return json.NewEncoder(w).Encode(jg)
}

// ImportGBM reads a model written by ExportGBM.
func ImportGBM(r io.Reader) (*GBM, error) {
	var jg jsonGBM
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("ml: decoding gbm: %w", err)
	}
	if jg.Kind != "gbm" {
		return nil, fmt.Errorf("ml: expected gbm, got %q", jg.Kind)
	}
	trees, err := rebuildTrees(jg.Trees)
	if err != nil {
		return nil, err
	}
	return &GBM{init: jg.Init, lr: jg.LR, quantile: jg.Quantile, trees: trees}, nil
}
