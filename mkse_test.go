package mkse

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"mkse/internal/core"
	"mkse/internal/rank"
)

// testCorpus is the small ranked corpus the facade tests search.
var testCorpus = map[string]string{
	"finance-q1":  "cloud revenue grew while server costs fell in the first quarter",
	"finance-q2":  "cloud revenue flat but storage demand grew in the second quarter",
	"eng-design":  "the encrypted index design uses trapdoor keys and ranking levels",
	"eng-history": "legacy search server rewrite postponed",
}

// testParams is the three-level configuration of the facade tests.
func testParams() Params {
	p := DefaultParams()
	p.Levels = rank.Levels{1, 5, 10}
	p.Bins = 64
	return p
}

// newTestSystem builds a ranked System holding testCorpus. Every test gets
// its own, so user IDs and added documents never leak between tests or
// between -count iterations.
func newTestSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(testParams())
	if err != nil {
		t.Fatal(err)
	}
	for id, text := range testCorpus {
		if err := s.AddDocument(id, []byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSystemSearchAndRetrieve(t *testing.T) {
	s := newTestSystem(t)
	alice, err := s.NewUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := s.Search(alice, []string{"cloud", "revenue"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, m := range matches {
		ids[m.DocID] = true
	}
	if !ids["finance-q1"] || !ids["finance-q2"] {
		t.Errorf("finance documents missing from matches: %v", matches)
	}
	pt, err := s.Retrieve(alice, "finance-q1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(pt, []byte("quarterly")) && !bytes.Contains(pt, []byte("first quarter")) {
		t.Errorf("retrieved plaintext unexpected: %q", pt)
	}
}

func TestSystemTopK(t *testing.T) {
	s := newTestSystem(t)
	bob, err := s.NewUser("bob")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := s.Search(bob, []string{"grew"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Errorf("topK=1 returned %d matches", len(matches))
	}
}

func TestSystemRejectsEmptyDocument(t *testing.T) {
	s := newTestSystem(t)
	if err := s.AddDocument("empty", []byte("!!! ...")); err == nil {
		t.Error("keyword-less document accepted")
	}
}

func TestSystemSearchUnknownKeywordFindsNothing(t *testing.T) {
	s := newTestSystem(t)
	carol, err := s.NewUser("carol")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := s.Search(carol, []string{"zzzznonexistent"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// False accepts are possible in principle but vanishingly rare at these
	// parameters with 4 documents.
	if len(matches) != 0 {
		t.Logf("note: %d false accepts for unknown keyword", len(matches))
	}
}

func TestSystemMultipleUsersIndependent(t *testing.T) {
	s := newTestSystem(t)
	u1, err := s.NewUser("indep-1")
	if err != nil {
		t.Fatal(err)
	}
	u2, err := s.NewUser("indep-2")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s.Search(u1, []string{"encrypted"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Search(u2, []string{"encrypted"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	has := func(ms []Match, id string) bool {
		for _, m := range ms {
			if m.DocID == id {
				return true
			}
		}
		return false
	}
	if !has(m1, "eng-design") || !has(m2, "eng-design") {
		t.Error("both users should find eng-design")
	}
}

func TestSystemDuplicateUser(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.NewUser("dup-user"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewUser("dup-user"); err == nil {
		t.Error("duplicate user enrollment accepted")
	}
}

func TestTokenizeFacade(t *testing.T) {
	tf := Tokenize("Cloud CLOUD cloud!", 3)
	if tf["cloud"] != 3 {
		t.Errorf("Tokenize facade broken: %v", tf)
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.R != 448 || p.D != 6 || p.U != 60 || p.V != 30 || p.RSABits != 1024 {
		t.Errorf("DefaultParams diverge from the paper: %+v", p)
	}
}

// A document's rank for a keyword is never below the keyword's true level
// (no false reject at any level) and, for a matching keyword, at least 1.
// It can be above: a higher level's index may cover the keyword's zero bits
// by chance (the paper's false accept, analysis.Model.FalseAcceptProbability),
// so under fresh keys only the bounds hold. Under pinned key material the
// outcome is reproducible and the cold keyword's rank is checked exactly.
func TestAddDocumentWithKeywordsRanked(t *testing.T) {
	fresh, err := NewSystem(testParams())
	if err != nil {
		t.Fatal(err)
	}
	pinnedOwner, err := core.NewOwnerDeterministic(testParams(), 1, 0xbe7c4)
	if err != nil {
		t.Fatal(err)
	}
	pinnedCloud, err := NewCloudServer(testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sys   *System
		exact bool
	}{
		{"fresh keys", fresh, false},
		{"pinned keys", &System{Owner: pinnedOwner, Cloud: pinnedCloud}, true},
	} {
		s := tc.sys
		t.Run(tc.name, func(t *testing.T) {
			tf := map[string]int{"hotword": 12, "coldword": 1}
			if err := s.AddDocumentWithKeywords("ranked-doc", tf, []byte("body")); err != nil {
				t.Fatal(err)
			}
			u, err := s.NewUser("rank-checker")
			if err != nil {
				t.Fatal(err)
			}
			rankOf := func(word string) int {
				matches, err := s.Search(u, []string{word}, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range matches {
					if m.DocID == "ranked-doc" {
						return m.Rank
					}
				}
				return 0
			}
			if got := rankOf("hotword"); got != 3 {
				t.Errorf("hotword rank = %d, want 3 (tf 12 >= threshold 10, the top level)", got)
			}
			cold := rankOf("coldword")
			if cold < 1 {
				t.Errorf("coldword rank = %d, want >= 1 (tf 1 is indexed at level 1)", cold)
			}
			if tc.exact && cold != 1 {
				t.Errorf("coldword rank = %d under pinned keys, want 1 (tf 1)", cold)
			}
		})
	}
}

// The networked facade end to end: daemons via the re-exported service
// types, client via mkse.Dial, upload via mkse.UploadAll.
func TestNetworkedFacade(t *testing.T) {
	params := DefaultParams()
	params.Bins = 32
	owner, err := NewOwner(params, 5)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := NewCloudServer(params)
	if err != nil {
		t.Fatal(err)
	}
	ownerL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ownerL.Close()
	cloudL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudL.Close()
	go func() { _ = (&OwnerService{Owner: owner}).Serve(ownerL) }()
	go func() { _ = (&CloudService{Server: cloud}).Serve(cloudL) }()

	doc := &Document{
		ID:        "facade-doc",
		TermFreqs: Tokenize("the facade works over tcp sockets", 3),
		Content:   []byte("the facade works over tcp sockets"),
	}
	si, enc, err := owner.Prepare(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := UploadAll(cloudL.Addr().String(), []UploadItem{{Index: si, Doc: enc}}); err != nil {
		t.Fatal(err)
	}

	client, err := Dial("facade-user", ownerL.Addr().String(), cloudL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	matches, err := client.Search([]string{"facade", "sockets"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].DocID != "facade-doc" {
		t.Fatalf("facade search failed: %v", matches)
	}
	pt, err := client.Retrieve("facade-doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(pt, []byte("facade works")) {
		t.Errorf("retrieved %q", pt)
	}
}

func ExampleSystem() {
	sys, err := NewSystem(DefaultParams())
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := sys.AddDocument("memo", []byte("the merger closes friday")); err != nil {
		fmt.Println(err)
		return
	}
	user, err := sys.NewUser("alice")
	if err != nil {
		fmt.Println(err)
		return
	}
	matches, err := sys.Search(user, []string{"merger"}, 10)
	if err != nil {
		fmt.Println(err)
		return
	}
	pt, err := sys.Retrieve(user, matches[0].DocID)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(string(pt))
	// Output: the merger closes friday
}

func TestSystemSearchBatch(t *testing.T) {
	s := newTestSystem(t)
	u, err := s.NewUser("batcher")
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]string{
		{"cloud", "revenue"},
		{"trapdoor"},
	}
	results, err := s.SearchBatch(u, queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d result sets, want 2", len(results))
	}
	ids := make(map[string]bool)
	for _, m := range results[0] {
		ids[m.DocID] = true
	}
	if !ids["finance-q1"] || !ids["finance-q2"] {
		t.Errorf("batch query 0 missed finance documents: %v", results[0])
	}
	found := false
	for _, m := range results[1] {
		if m.DocID == "eng-design" {
			found = true
		}
	}
	if !found {
		t.Errorf("batch query 1 missed eng-design: %v", results[1])
	}
}

// DeleteDocument removes a document from search and retrieval; the System
// facade surfaces the server's not-found error for unknown IDs.
func TestSystemDeleteDocument(t *testing.T) {
	p := DefaultParams()
	p.Bins = 64
	s, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument("keep", []byte("shared cloud revenue report for the board")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument("drop", []byte("shared cloud revenue draft to retract later")); err != nil {
		t.Fatal(err)
	}
	u, err := s.NewUser("deleter")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := s.Search(u, []string{"shared", "revenue"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("expected both documents before deletion, got %d", len(matches))
	}
	if err := s.DeleteDocument("drop"); err != nil {
		t.Fatal(err)
	}
	matches, err = s.Search(u, []string{"shared", "revenue"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].DocID != "keep" {
		t.Fatalf("after deletion got %+v, want only %q", matches, "keep")
	}
	if _, err := s.Retrieve(u, "drop"); err == nil {
		t.Fatal("Retrieve of deleted document succeeded")
	}
	if err := s.DeleteDocument("drop"); err == nil {
		t.Fatal("deleting a deleted document succeeded")
	}
}
