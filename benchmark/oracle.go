package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// expectation is what the DOM executor says a round must produce: a digest
// of every query's and document read's output, and the document after the
// round. The DOM executor (xquery over internal/update) shares no code
// with the SQL translation it checks.
type expectation struct {
	digests []uint64
	final   string
}

// cloneDoc deep-copies a document, keeping its DTD.
func cloneDoc(doc *xmltree.Document) *xmltree.Document {
	cp := xmltree.NewDocument(doc.Root.Clone())
	cp.DTD = doc.DTD
	return cp
}

// expect runs ops against a copy of doc on the DOM executor.
func expect(w *workload, doc *xmltree.Document, ops []op) (*expectation, error) {
	dom := cloneDoc(doc)
	ev := xquery.NewEvaluator(dom)
	ev.Ctx.Documents = map[string]*xmltree.Document{w.docName: dom}
	exp := &expectation{digests: make([]uint64, len(ops))}
	for i, o := range ops {
		switch o.kind {
		case opCopy:
			src, err := findE1(dom.Root, o.key)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			dom.Root.AppendChild(src.Clone())
		case opDoc:
			exp.digests[i] = digestString(dom.String())
		default:
			res, err := ev.ExecString(o.xq)
			if err != nil {
				return nil, fmt.Errorf("op %d (%v) on the DOM: %w", i, o.kind, err)
			}
			if o.kind.isUpdate() {
				if res.Tuples == 0 {
					return nil, fmt.Errorf("op %d (%v) bound no tuple: %s", i, o.kind, o.xq)
				}
				continue
			}
			elems := make([]*xmltree.Element, len(res.Items))
			for j, it := range res.Items {
				e, ok := it.(*xmltree.Element)
				if !ok {
					return nil, fmt.Errorf("op %d returned a %T, not an element", i, it)
				}
				elems[j] = e
			}
			exp.digests[i] = digestSubtrees(elems)
		}
	}
	exp.final = dom.String()
	return exp, nil
}

// findE1 returns the one e1 child of root whose k1 text is key.
func findE1(root *xmltree.Element, key string) (*xmltree.Element, error) {
	var found *xmltree.Element
	for _, e := range root.ChildElementsNamed("e1") {
		if e.FirstChildNamed("k1").TextContent() == key {
			if found != nil {
				return nil, fmt.Errorf("k1 %q names more than one e1", key)
			}
			found = e
		}
	}
	if found == nil {
		return nil, fmt.Errorf("no e1 with k1 %q", key)
	}
	return found, nil
}

// digestSubtrees hashes a query's result as a multiset of serialized
// subtrees: the relational store returns subtrees in id order, which need
// not be document order once inserts have run.
func digestSubtrees(elems []*xmltree.Element) uint64 {
	strs := make([]string, len(elems))
	for i, e := range elems {
		strs[i] = xmltree.Serialize(e)
	}
	sort.Strings(strs)
	h := fnv.New64a()
	for _, s := range strs {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func digestString(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// dropLastSubtree removes the root's last child element; it plants a
// mismatch the final check must catch.
func dropLastSubtree(doc *xmltree.Document) {
	kids := doc.Root.ChildElements()
	if len(kids) > 0 {
		doc.Root.RemoveChild(kids[len(kids)-1])
	}
}
