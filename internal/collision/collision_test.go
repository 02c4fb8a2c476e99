package collision

import (
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/urlx"
)

// TestClassifyTable6 reproduces the paper's Table 6: the client visits
// a.b.c, the server receives prefixes A = prefix(a.b.c/) and
// B = prefix(b.c/), and three candidate URLs exemplify the three types.
func TestClassifyTable6(t *testing.T) {
	t.Parallel()
	targetDecomps, err := urlx.Decompose("http://a.b.c/")
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	prefixes := []hashx.Prefix{
		hashx.SumPrefix("a.b.c/"),
		hashx.SumPrefix("b.c/"),
	}

	// Type I: g.a.b.c decomposes through a.b.c/ and b.c/ themselves.
	candI, err := urlx.Decompose("http://g.a.b.c/")
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if got := Classify(prefixes, targetDecomps, candI); got != TypeI {
		t.Errorf("g.a.b.c: %v, want Type I", got)
	}

	// Type II: g.b.c shares b.c/ but would need a digest collision for A.
	// Real SHA-256 won't collide, so simulate with the decomposition set
	// the paper posits: g.b.c/ hashing to A.
	candII := []string{"g.b.c/", "b.c/"}
	gotII := Classify(prefixes, targetDecomps, candII)
	if gotII != None {
		// With honest hashing the Type II candidate fails to cover A.
		t.Errorf("g.b.c with honest hashes: %v, want none", gotII)
	}

	// Type III needs two digest collisions: unobservable with honest
	// hashing.
	candIII, err := urlx.Decompose("http://d.e.f/")
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if got := Classify(prefixes, targetDecomps, candIII); got != None {
		t.Errorf("d.e.f: %v, want none", got)
	}
}

// TestClassifySyntheticTypes forces Type II and Type III classifications
// by constructing prefix sets from the candidates themselves (standing in
// for 2^-32 digest collisions, which cannot be conjured on demand).
func TestClassifySyntheticTypes(t *testing.T) {
	t.Parallel()
	targetDecomps := []string{"a.b.c/", "b.c/"}

	// Type II: prefix set = {shared decomposition, candidate-only
	// decomposition}.
	prefixesII := []hashx.Prefix{
		hashx.SumPrefix("b.c/"),   // shared string
		hashx.SumPrefix("g.b.c/"), // "collides" with A in the paper's example
	}
	candII := []string{"g.b.c/", "b.c/"}
	if got := Classify(prefixesII, targetDecomps, candII); got != TypeII {
		t.Errorf("synthetic Type II: %v", got)
	}

	// Type III: no shared decompositions at all.
	prefixesIII := []hashx.Prefix{
		hashx.SumPrefix("d.e.f/"),
		hashx.SumPrefix("e.f/"),
	}
	candIII := []string{"d.e.f/", "e.f/"}
	if got := Classify(prefixesIII, targetDecomps, candIII); got != TypeIII {
		t.Errorf("synthetic Type III: %v", got)
	}

	// None: candidate covers only one of two prefixes.
	prefixesNone := []hashx.Prefix{
		hashx.SumPrefix("b.c/"),
		hashx.SumPrefix("unrelated.example/"),
	}
	if got := Classify(prefixesNone, targetDecomps, candII); got != None {
		t.Errorf("partial cover: %v, want none", got)
	}
	if got := Classify(nil, targetDecomps, candII); got != None {
		t.Errorf("empty prefixes: %v, want none", got)
	}
}

func TestTypeStrings(t *testing.T) {
	t.Parallel()
	for typ, want := range map[Type]string{
		None: "none", TypeI: "Type I", TypeII: "Type II", TypeIII: "Type III",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	if Type(42).String() == "" {
		t.Error("unknown type String empty")
	}
}

// TestHierarchyFigure4 builds the sample domain hierarchy of Figure 4 and
// checks leaf classification: a.b.c/1, a.b.c/2, a.b.c/3/3.1, a.b.c/3/3.2
// and d.b.c are leaves; a.b.c and a.b.c/3 are not.
func TestHierarchyFigure4(t *testing.T) {
	t.Parallel()
	urls := []string{
		"b.c/",
		"a.b.c/",
		"a.b.c/1",
		"a.b.c/2",
		"a.b.c/3/",
		"a.b.c/3/3.1",
		"a.b.c/3/3.2",
		"d.b.c/",
	}
	h := NewHierarchy(urls)

	leaves := map[string]bool{
		"a.b.c/1":     true,
		"a.b.c/2":     true,
		"a.b.c/3/3.1": true,
		"a.b.c/3/3.2": true,
		"d.b.c/":      true,
		"a.b.c/":      false, // decomposition of a.b.c/1 etc.
		"a.b.c/3/":    false, // decomposition of a.b.c/3/3.1
		"b.c/":        false, // decomposition of everything on the domain
	}
	for u, want := range leaves {
		if got := h.IsLeaf(u); got != want {
			t.Errorf("IsLeaf(%q) = %v, want %v", u, got, want)
		}
	}

	gotLeaves := h.Leaves()
	if len(gotLeaves) != 5 {
		t.Errorf("Leaves() = %v, want 5 leaves", gotLeaves)
	}

	// a.b.c/3/ is contained by its two children.
	colliders := h.TypeIColliders("a.b.c/3/")
	if len(colliders) != 2 {
		t.Errorf("TypeIColliders(a.b.c/3/) = %v", colliders)
	}
	// Total pairs: each URL contributes its non-self decompositions that
	// are URLs.
	if h.TotalTypeIPairs() == 0 {
		t.Error("TotalTypeIPairs = 0")
	}
	if got := h.URLs(); len(got) != len(urls) {
		t.Errorf("URLs() = %d, want %d", len(got), len(urls))
	}
}

// TestHierarchyPETS reproduces the Algorithm 1 worked example: the target
// petsymposium.org/2016/ has Type I collisions with links.php and
// faqs.php (and the CFP page), while the CFP page itself is a leaf.
func TestHierarchyPETS(t *testing.T) {
	t.Parallel()
	urls := []string{
		"petsymposium.org/",
		"petsymposium.org/2016/",
		"petsymposium.org/2016/cfp.php",
		"petsymposium.org/2016/links.php",
		"petsymposium.org/2016/faqs.php",
	}
	h := NewHierarchy(urls)

	if !h.IsLeaf("petsymposium.org/2016/cfp.php") {
		t.Error("cfp.php should be a leaf")
	}
	if h.IsLeaf("petsymposium.org/2016/") {
		t.Error("2016/ should not be a leaf")
	}
	colliders := h.TypeIColliders("petsymposium.org/2016/")
	want := map[string]bool{
		"petsymposium.org/2016/cfp.php":   true,
		"petsymposium.org/2016/links.php": true,
		"petsymposium.org/2016/faqs.php":  true,
	}
	if len(colliders) != 3 {
		t.Fatalf("TypeIColliders(2016/) = %v", colliders)
	}
	for _, c := range colliders {
		if !want[c] {
			t.Errorf("unexpected collider %q", c)
		}
	}
}

func TestHierarchyForeignExpression(t *testing.T) {
	t.Parallel()
	h := NewHierarchy([]string{"x.example/a"})
	d := h.Decompositions("y.example/b/c.html")
	if len(d) == 0 {
		t.Error("foreign expression decompositions empty")
	}
	if !h.IsLeaf("unindexed.example/") {
		t.Error("unindexed expression should report leaf (no containment)")
	}
}
