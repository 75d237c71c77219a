package main

import (
	"fmt"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/relational"
	"repro/internal/xmltree"
)

// opKind names one operation of a workload's mix.
type opKind int

const (
	opDelete opKind = iota
	opInsert
	opReplace
	opCopy
	opLookup
	opPath
	opDoc
	numKinds
)

var kindNames = [numKinds]string{"delete", "insert", "replace", "copy", "lookup", "path", "doc"}

func (k opKind) String() string { return kindNames[k] }

// isUpdate reports whether the operation commits a change.
func (k opKind) isUpdate() bool { return k <= opCopy }

// op is one operation of the fixed sequence a round executes.
type op struct {
	kind opKind
	// xq is the XQuery statement of every kind but copy and doc.
	xq string
	// key is the k1 value of the e1 subtree a copy replicates.
	key string
	// returns is the element a query's subtrees are rooted at.
	returns string
}

// workload is one seeded operation mix over one generated document.
type workload struct {
	name string
	// docName is the name statements pass to document().
	docName string
	doc     func() *xmltree.Document
	engine  engine.Options
	storage relational.Options
	// cycle is the repeating pattern of operations; a doc operation follows
	// every docEvery-th cycle, and a round runs cycles of them.
	cycle    []opKind
	docEvery int
	cycles   int
	// model tracks the live document so generated operations always name
	// targets that exist.
	model func(doc *xmltree.Document) opModel
}

// opModel makes the operation of one kind, updating its view of the
// document as the operation will.
type opModel interface {
	next(k opKind, rng *rand.Rand) op
}

// Document parameters. The DBLP document is Table 2's (40 conferences,
// mean 60 publications each); the read workload's is four times larger.
// The deep document is the paper's fixed synthetic shape at depth 5,
// fanout 4, scaling factor 100.
var (
	dblpTable2 = datagen.DBLPParams{Conferences: 40, PubsPerConf: 60, Seed: 11}
	dblpLarge  = datagen.DBLPParams{Conferences: 160, PubsPerConf: 60, Seed: 11}
	deepFixed  = datagen.FixedParams{ScalingFactor: 100, Depth: 5, Fanout: 4, Seed: 1}
)

// workloads are the benchmark's mixes; README.md says why each exists.
var workloads = []*workload{
	{
		name:     "dblp-mixed",
		docName:  "dblp.xml",
		doc:      func() *xmltree.Document { return datagen.DBLP(dblpTable2) },
		cycle:    []opKind{opDelete, opLookup, opInsert, opPath, opReplace, opLookup, opPath},
		docEvery: 20,
		cycles:   40,
		model:    newDBLPModel,
	},
	{
		name:     "deep-asr-paged",
		docName:  "deep.xml",
		doc:      func() *xmltree.Document { return datagen.Fixed(deepFixed) },
		engine:   engine.Options{Delete: engine.ASRDelete, Insert: engine.ASRInsert},
		storage:  relational.Options{Storage: relational.StoragePaged, PoolPages: 64},
		cycle:    []opKind{opDelete, opPath, opCopy, opLookup, opPath},
		docEvery: 2,
		cycles:   8,
		model:    newDeepModel,
	},
	{
		name:     "dblp-read-paged",
		docName:  "dblp.xml",
		doc:      func() *xmltree.Document { return datagen.DBLP(dblpLarge) },
		storage:  relational.Options{Storage: relational.StoragePaged, PoolPages: 64},
		cycle:    []opKind{opLookup, opPath, opLookup, opPath},
		docEvery: 5,
		cycles:   50,
		model:    newDBLPModel,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sequence returns the round's fixed operation sequence for seed. It
// depends on nothing but the workload, the document and the seed.
func (w *workload) sequence(doc *xmltree.Document, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	m := w.model(doc)
	var ops []op
	for c := 0; c < w.cycles; c++ {
		for _, k := range w.cycle {
			ops = append(ops, m.next(k, rng))
		}
		if (c+1)%w.docEvery == 0 {
			ops = append(ops, op{kind: opDoc})
		}
	}
	return ops
}

const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func randText(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// pickIndex returns a uniformly chosen index of s.
func pickIndex[T any](rng *rand.Rand, s []T) int { return rng.Intn(len(s)) }

// dblpPub is one live publication as the DBLP model sees it.
type dblpPub struct {
	conf    string
	key     string
	authors []string
}

type dblpModel struct {
	confs []string
	pubs  []dblpPub
	added int
}

func newDBLPModel(doc *xmltree.Document) opModel {
	m := &dblpModel{}
	for _, c := range doc.Root.ChildElementsNamed("conference") {
		name := c.FirstChildNamed("name").TextContent()
		m.confs = append(m.confs, name)
		for _, p := range c.ChildElementsNamed("publication") {
			key, _ := p.AttrValue("key")
			pub := dblpPub{conf: name, key: key}
			for _, a := range p.ChildElementsNamed("author") {
				pub.authors = append(pub.authors, a.TextContent())
			}
			m.pubs = append(m.pubs, pub)
		}
	}
	return m
}

const dblpPrefix = `FOR $c IN document("dblp.xml")/dblp/conference[name = "%s"], $p IN $c/publication[@key = "%s"]`

func (m *dblpModel) next(k opKind, rng *rand.Rand) op {
	switch k {
	case opDelete:
		i := pickIndex(rng, m.pubs)
		p := m.pubs[i]
		m.pubs[i] = m.pubs[len(m.pubs)-1]
		m.pubs = m.pubs[:len(m.pubs)-1]
		return op{kind: k, xq: fmt.Sprintf(dblpPrefix+` UPDATE $c { DELETE $p }`, p.conf, p.key)}
	case opInsert:
		m.added++
		p := dblpPub{
			conf:    m.confs[pickIndex(rng, m.confs)],
			key:     fmt.Sprintf("bench/%d", m.added),
			authors: []string{"Author " + randText(rng, 8)},
		}
		m.pubs = append(m.pubs, p)
		return op{kind: k, xq: fmt.Sprintf(`FOR $c IN document("dblp.xml")/dblp/conference[name = "%s"] UPDATE $c { INSERT <publication year="2001" key="%s"><title>%s</title><author>%s</author></publication> }`,
			p.conf, p.key, randText(rng, 40), p.authors[0])}
	case opReplace:
		p := m.pubs[pickIndex(rng, m.pubs)]
		return op{kind: k, xq: fmt.Sprintf(dblpPrefix+`, $t IN $p/title UPDATE $p { REPLACE $t WITH <title>%s</title> }`,
			p.conf, p.key, randText(rng, 40))}
	case opLookup:
		p := m.pubs[pickIndex(rng, m.pubs)]
		return op{kind: k, returns: "publication", xq: fmt.Sprintf(`FOR $p IN document("dblp.xml")/dblp/conference/publication[@key = "%s"] RETURN $p`, p.key)}
	case opPath:
		p := m.pubs[pickIndex(rng, m.pubs)]
		a := p.authors[pickIndex(rng, p.authors)]
		return op{kind: k, returns: "publication", xq: fmt.Sprintf(`FOR $p IN document("dblp.xml")/dblp/conference/publication[author = "%s"] RETURN $p`, a)}
	}
	panic(fmt.Sprintf("dblp model: no %v operation", k))
}

// deepSubtree is one live e1 subtree: its k1 value, its position among
// the generated document's e1 elements, and the k3 values of its e3
// descendants that no other e3 of the generated document holds.
type deepSubtree struct {
	k1  string
	pos int
	k3s []string
}

// deepStrata is how many position bands the deep model spreads each kind
// of operation across.
const deepStrata = 8

type deepModel struct {
	root     string // the document element's name
	subtrees []deepSubtree
	// copies counts live subtrees per k1 value. Every operation picks a
	// k1 value held by one subtree, so each deletes, copies or returns
	// exactly one subtree, whatever the seed.
	copies map[string]int
	// picks counts the operations of each kind so far; the n-th picks from
	// band strata[n%deepStrata] of the original e1 positions, so every
	// seed touches subtrees spread alike over the document's pages.
	picks  [numKinds]int
	strata []int
}

func newDeepModel(doc *xmltree.Document) opModel {
	m := &deepModel{root: doc.Root.Name, copies: make(map[string]int)}
	k3Count := make(map[string]int)
	e1s := doc.Root.ChildElementsNamed("e1")
	for _, e1 := range e1s {
		for _, e2 := range e1.ChildElementsNamed("e2") {
			for _, e3 := range e2.ChildElementsNamed("e3") {
				k3Count[e3.FirstChildNamed("k3").TextContent()]++
			}
		}
	}
	for i, e1 := range e1s {
		st := deepSubtree{k1: e1.FirstChildNamed("k1").TextContent(), pos: i * deepStrata / len(e1s)}
		for _, e2 := range e1.ChildElementsNamed("e2") {
			for _, e3 := range e2.ChildElementsNamed("e3") {
				if k3 := e3.FirstChildNamed("k3").TextContent(); k3Count[k3] == 1 {
					st.k3s = append(st.k3s, k3)
				}
			}
		}
		m.subtrees = append(m.subtrees, st)
		m.copies[st.k1]++
	}
	return m
}

// pickSingle returns the index of a random subtree whose k1 value no other
// live subtree shares, from the position band due for an operation of
// kind k.
func (m *deepModel) pickSingle(k opKind, rng *rand.Rand) int {
	if m.strata == nil {
		m.strata = rng.Perm(deepStrata)
	}
	band := m.strata[m.picks[k]%deepStrata]
	m.picks[k]++
	var single, inBand []int
	for i, st := range m.subtrees {
		if m.copies[st.k1] == 1 && len(st.k3s) > 0 {
			single = append(single, i)
			if st.pos == band {
				inBand = append(inBand, i)
			}
		}
	}
	if len(inBand) > 0 {
		return inBand[pickIndex(rng, inBand)]
	}
	if len(single) == 0 {
		panic("deep model: every e1 subtree is shared; the round is too long for the document")
	}
	return single[pickIndex(rng, single)]
}

func (m *deepModel) next(k opKind, rng *rand.Rand) op {
	switch k {
	case opDelete:
		i := m.pickSingle(k, rng)
		st := m.subtrees[i]
		m.subtrees = append(m.subtrees[:i], m.subtrees[i+1:]...)
		delete(m.copies, st.k1)
		return op{kind: k, xq: fmt.Sprintf(`FOR $r IN document("deep.xml")/%s, $e IN $r/e1[k1 = "%s"] UPDATE $r { DELETE $e }`, m.root, st.k1)}
	case opCopy:
		st := m.subtrees[m.pickSingle(k, rng)]
		m.subtrees = append(m.subtrees, st)
		m.copies[st.k1]++
		return op{kind: k, key: st.k1}
	case opLookup:
		st := m.subtrees[m.pickSingle(k, rng)]
		return op{kind: k, returns: "e1", xq: fmt.Sprintf(`FOR $e IN document("deep.xml")/%s/e1[k1 = "%s"] RETURN $e`, m.root, st.k1)}
	case opPath:
		st := m.subtrees[m.pickSingle(k, rng)]
		k3 := st.k3s[pickIndex(rng, st.k3s)]
		return op{kind: k, returns: "e3", xq: fmt.Sprintf(`FOR $e IN document("deep.xml")/%s/e1/e2/e3[k3 = "%s"] RETURN $e`, m.root, k3)}
	}
	panic(fmt.Sprintf("deep model: no %v operation", k))
}
