package pattern

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fsmon"
)

// matchCases is the behaviour table: MatchJSON must give want, and so
// must the reference (json.Unmarshal + Match). The fuzzer starts from
// these documents and draws its patterns from this table too.
var matchCases = []struct {
	name, pat, doc string
	want           bool
}{
	// The paper's Listing 1: invoke only when event_type is "created".
	{"listing1", `{"value": {"event_type": ["created"]}}`, `{"value": {"event_type": "created", "path": "/data/f1"}}`, true},
	{"listing1", `{"value": {"event_type": ["created"]}}`, `{"value": {"event_type": "modified"}}`, false},
	{"listing1", `{"value": {"event_type": ["created"]}}`, `{"value": {}}`, false},
	{"listing1", `{"value": {"event_type": ["created"]}}`, `{"other": 1}`, false},

	{"literal", `{"a": ["x", "y"]}`, `{"a": "y"}`, true},
	{"literal", `{"a": ["x", "y"]}`, `{"a": "z"}`, false},
	{"literal", `{"n": [42]}`, `{"n": 42}`, true},
	{"literal", `{"n": [42]}`, `{"n": 41}`, false},
	{"literal", `{"n": [42]}`, `{"n": "42"}`, false},
	{"literal", `{"b": [true]}`, `{"b": true}`, true},
	{"literal", `{"b": [true]}`, `{"b": false}`, false},
	{"literal", `{"z": [null]}`, `{"z": null}`, true},
	{"literal", `{"z": [null]}`, `{"z": 0}`, false},
	{"literal", `{"a": ["x", "y"]}`, `{"a": {"x": "x"}}`, false},

	{"and", `{"a": ["1"], "b": ["2"]}`, `{"a": "1", "b": "2"}`, true},
	{"and", `{"a": ["1"], "b": ["2"]}`, `{"a": "1", "b": "3"}`, false},
	{"and", `{"a": ["1"], "b": ["2"]}`, `{"a": "1"}`, false},

	{"prefix", `{"f": [{"prefix": "/data/"}]}`, `{"f": "/data/run7/x.tif"}`, true},
	{"prefix", `{"f": [{"prefix": "/data/"}]}`, `{"f": "/scratch/x"}`, false},
	{"prefix", `{"f": [{"prefix": "a"}]}`, `{"f": 5}`, false},
	{"suffix", `{"f": [{"suffix": ".tif"}]}`, `{"f": "scan.tif"}`, true},
	{"suffix", `{"f": [{"suffix": ".tif"}]}`, `{"f": "scan.h5"}`, false},

	{"ignore-case", `{"s": [{"equals-ignore-case": "CrEaTeD"}]}`, `{"s": "created"}`, true},
	{"ignore-case", `{"s": [{"equals-ignore-case": "created"}]}`, `{"s": "deleted"}`, false},
	{"ignore-case", `{"s": [{"equals-ignore-case": "\u00c9T\u00c9"}]}`, "{\"s\": \"\u00e9t\u00e9\"}", true},

	{"wildcard", `{"f": [{"wildcard": "/data/*/raw/*.tif"}]}`, `{"f": "/data/run1/raw/a.tif"}`, true},
	{"wildcard", `{"f": [{"wildcard": "/data/*/raw/*.tif"}]}`, `{"f": "/data/run1/cooked/a.tif"}`, false},
	{"wildcard", `{"f": [{"wildcard": "*"}]}`, `{"f": "anything"}`, true},
	{"wildcard", `{"f": [{"wildcard": "*"}]}`, `{"f": 1}`, false},
	{"wildcard", `{"f": [{"wildcard": "exact"}]}`, `{"f": "exact"}`, true},
	{"wildcard", `{"f": [{"wildcard": "exact"}]}`, `{"f": "exactly"}`, false},
	{"wildcard", `{"f": [{"wildcard": "a*a"}]}`, `{"f": "aba"}`, true},
	{"wildcard", `{"f": [{"wildcard": "a*a"}]}`, `{"f": "ab"}`, false},
	{"wildcard", `{"f": [{"wildcard": "a*a"}]}`, `{"f": "a"}`, false},

	{"anything-but", `{"t": [{"anything-but": ["deleted"]}]}`, `{"t": "created"}`, true},
	{"anything-but", `{"t": [{"anything-but": ["deleted"]}]}`, `{"t": "deleted"}`, false},
	{"anything-but", `{"t": [{"anything-but": ["a", "b"]}]}`, `{"t": "b"}`, false},
	{"anything-but", `{"t": [{"anything-but": "x"}]}`, `{"missing": 1}`, false},
	{"anything-but", `{"t": [{"anything-but": [1, null]}]}`, `{"t": 1}`, false},
	{"anything-but", `{"t": [{"anything-but": [1, null]}]}`, `{"t": []}`, false},
	{"anything-but", `{"t": [{"anything-but": [1, null]}]}`, `{"t": {"k": 1}}`, true},
	{"anything-but", `{"t": [{"anything-but": [1, null]}]}`, `{"t": [1, [1]]}`, true},

	{"numeric", `{"v": [{"numeric": [">", 0, "<=", 5]}]}`, `{"v": 3}`, true},
	{"numeric", `{"v": [{"numeric": [">", 0, "<=", 5]}]}`, `{"v": 5}`, true},
	{"numeric", `{"v": [{"numeric": [">", 0, "<=", 5]}]}`, `{"v": 0}`, false},
	{"numeric", `{"v": [{"numeric": [">", 0, "<=", 5]}]}`, `{"v": 6}`, false},
	{"numeric", `{"v": [{"numeric": [">", 0, "<=", 5]}]}`, `{"v": -0}`, false},
	{"numeric", `{"v": [{"numeric": ["=", 2.5]}]}`, `{"v": 2.5}`, true},
	{"numeric", `{"v": [{"numeric": [">", 0]}]}`, `{"v": "3"}`, false},
	// Exponent form, and magnitudes at and past what float64 holds.
	{"numeric", `{"v": [{"numeric": ["=", 2.5]}]}`, `{"v": 25E-1}`, true},
	{"numeric", `{"v": [{"numeric": ["=", 2.5]}]}`, `{"v": 0.025e+2}`, true},
	{"numeric", `{"v": [{"numeric": [">", 0]}]}`, `{"v": 1e308}`, true},
	{"numeric", `{"v": [{"numeric": [">", 0]}]}`, `{"v": 1e309}`, false},
	{"numeric", `{"v": [{"numeric": ["=", 0]}]}`, `{"v": 1e-999}`, true},
	{"numeric", `{"v": [{"numeric": [">", 0]}]}`, `{"v": 1, "skipped": -1e999}`, false},
	{"numeric", `{"v": [{"numeric": [">", 0]}]}`, `{"v": 1, "skipped": 123456789012345678901234567890.5}`, true},
	{"numeric", `{"v": [{"numeric": [">", 1e17]}]}`, `{"v": 123456789012345678}`, true},
	{"numeric", `{"v": [{"numeric": [">", 0]}]}`, `{"v": 01}`, false},
	{"numeric", `{"v": [{"numeric": [">", 0]}]}`, `{"v": 1.}`, false},
	{"numeric", `{"v": [{"numeric": [">", 0]}]}`, `{"v": 1e}`, false},
	{"numeric", `{"v": [{"numeric": ["<", 0]}]}`, `{"v": -}`, false},
	{"numeric", `{"v": [{"numeric": [">", 0]}]}`, `{"v": +1}`, false},

	{"exists", `{"x": [{"exists": true}]}`, `{"x": 0}`, true},
	{"exists", `{"x": [{"exists": true}]}`, `{"x": null}`, true},
	{"exists", `{"x": [{"exists": true}]}`, `{"x": {"deep": [1, {"k": null}]}}`, true},
	{"exists", `{"x": [{"exists": true}]}`, `{"y": 0}`, false},
	{"exists", `{"x": [{"exists": false}]}`, `{"y": 0}`, true},
	{"exists", `{"x": [{"exists": false}]}`, `{}`, true},
	{"exists", `{"x": [{"exists": false}]}`, `{"x": null}`, false},
	{"exists", `{"x": [{"exists": false}, "on"]}`, `{"x": "on"}`, true},
	{"exists", `{"x": [{"exists": false}, "on"]}`, `{"x": "off"}`, false},
	{"exists", `{"d": {"x": [{"exists": false}]}}`, `{"d": {}}`, true},
	{"exists", `{"d": {"x": [{"exists": false}]}}`, `{}`, false},
	// A top-level null decodes to a nil document.
	{"exists", `{"x": [{"exists": false}]}`, ` null `, true},
	{"exists", `{"x": [{"exists": true}]}`, `null`, false},
	{"exists", `{"x": [{"exists": false}]}`, `nul`, false},

	{"nested", `{"detail": {"state": {"status": ["ok"]}}}`, `{"detail": {"state": {"status": "ok"}}}`, true},
	{"nested", `{"detail": {"state": {"status": ["ok"]}}}`, `{"detail": {"state": {"status": "bad"}}}`, false},
	{"nested", `{"detail": {"state": {"status": ["ok"]}}}`, `{"detail": {"state": "ok"}}`, false},
	{"nested", `{"detail": {"state": {"status": ["ok"]}}}`, `{"detail": 5}`, false},
	{"nested", `{"detail": {"state": {"status": ["ok"]}}}`, `{"detail": null}`, false},
	// A nested pattern does not look inside arrays of objects.
	{"nested", `{"detail": {"state": {"status": ["ok"]}}}`, `{"detail": [{"state": {"status": "ok"}}]}`, false},
	{"nested", `{"detail": {"state": {"status": ["ok"]}}}`, "{\"noise\": [1, {\"detail\": 1}, \"s\"],\n\t\"detail\": {\"pad\": {\"state\": 0}, \"state\": {\"status\": \"ok\"}}, \"tail\": true}\r\n", true},

	// Any element of an event array matching any matcher is a match; an
	// empty array stands for null; an array in an array is no scalar.
	{"array", `{"tags": ["urgent"]}`, `{"tags": ["routine", "urgent"]}`, true},
	{"array", `{"tags": ["urgent"]}`, `{"tags": ["routine"]}`, false},
	{"array", `{"tags": ["urgent"]}`, `{"tags": []}`, false},
	{"array", `{"tags": ["urgent"]}`, `{"tags": [["urgent"]]}`, false},
	{"array", `{"tags": ["urgent"]}`, `{"tags": [{"urgent": 1}, 2, null, "urgent"]}`, true},
	{"array", `{"tags": [null]}`, `{"tags": [ ]}`, true},
	{"array", `{"tags": [{"exists": true}]}`, `{"tags": []}`, true},
	{"array", `{"tags": ["urgent"]}`, `{"tags": ["urgent",]}`, false},
	{"array", `{"tags": ["urgent"]}`, `{"tags": ["urgent"}`, false},

	{"or", `{"t": ["created", {"prefix": "mod"}]}`, `{"t": "created"}`, true},
	{"or", `{"t": ["created", {"prefix": "mod"}]}`, `{"t": "modified"}`, true},
	{"or", `{"t": ["created", {"prefix": "mod"}]}`, `{"t": "deleted"}`, false},

	// The last of duplicate keys wins, whole: nothing merges.
	{"duplicate", `{"a": ["x"]}`, `{"a": "x", "a": "y"}`, false},
	{"duplicate", `{"a": ["x"]}`, `{"a": "y", "a": "x"}`, true},
	{"duplicate", `{"a": [{"exists": false}]}`, `{"b": 1, "b": 2}`, true},
	{"duplicate", `{"d": {"p": ["1"], "q": ["2"]}}`, `{"d": {"p": "1"}, "d": {"q": "2"}}`, false},
	{"duplicate", `{"d": {"p": ["1"], "q": ["2"]}}`, `{"d": 0, "d": {"q": "2", "p": "1"}}`, true},
	{"duplicate", `{"d": {"p": ["1"], "q": ["2"]}}`, `{"d": {"q": "2", "p": "1"}, "d": 0}`, false},

	// Escapes, in values and in keys.
	{"escape", `{"s": ["a\"b\\c/d\n"]}`, `{"s": "a\"b\\c\/d\n"}`, true},
	{"escape", `{"s": ["A"]}`, `{"s": "\u0041"}`, true},
	{"escape", `{"s": ["A"]}`, `{"\u0073": "A"}`, true},
	{"escape", `{"s": ["A"]}`, `{"\u0073": "A", "s": "B"}`, false},
	{"escape", `{"s": ["A"]}`, `{"s": "\u004"}`, false},
	{"escape", `{"s": ["A"]}`, `{"s": "\u00g1"}`, false},
	{"escape", `{"s": ["A"]}`, `{"s": "\x41"}`, false},
	{"escape", `{"s": ["A"]}`, "{\"s\": \"A\", \"t\": \"tab\there\"}", false},
	{"escape", `{"s": [{"suffix": "\t\b\f\r"}]}`, `{"s": "x\t\b\f\r"}`, true},
	{"escape", `{"s": ["\ud83d\ude00"]}`, "{\"s\": \"\U0001F600\"}", true},
	{"escape", `{"s": ["\ud83d\ude00"]}`, `{"s": "\uD83D\uDE00"}`, true},
	// An unpaired surrogate escape decodes to U+FFFD; what follows it
	// is decoded on its own.
	{"escape", `{"s": ["\ufffd"]}`, `{"s": "\ud83d"}`, true},
	{"escape", `{"s": ["\ufffdA"]}`, `{"s": "\ud83dA"}`, true},
	{"escape", `{"s": ["\ufffdA"]}`, `{"s": "\ud83d\u0041"}`, true},
	{"escape", `{"s": ["\ufffd\ud83d\ude00"]}`, `{"s": "\ud83d\ud83d\ude00"}`, true},
	{"escape", `{"s": ["\ufffd"]}`, `{"s": "\ude00"}`, true},
	{"escape", `{"s": ["\ufffd\ufffd"]}`, `{"s": "\ude00\ud83d"}`, true},

	// Non-ASCII text, raw and escaped, in a key too; invalid UTF-8 reads
	// as U+FFFD.
	{"utf8", `{"cl\u00e9": [{"prefix": "\u00e9"}]}`, "{\"cl\u00e9\": \"\u00e9t\u00e9\"}", true},
	{"utf8", `{"cl\u00e9": [{"prefix": "\u00e9"}]}`, `{"cl\u00e9": "\u00e9t\u00e9"}`, true},
	{"utf8", `{"s": ["a\ufffdb"]}`, "{\"s\": \"a\xffb\"}", true},
	{"utf8", `{"s": ["a\ufffdb"]}`, "{\"s\": \"a\xc3b\"}", true},
	{"utf8", `{"s": ["a\ufffd\ufffdb"]}`, "{\"s\": \"a\xe2\x82b\"}", true},
	{"utf8", `{"s": ["a\ufffdb"]}`, "{\"s\": \"a\uFFFDb\"}", true},
	{"utf8", `{"k\ufffd": [1]}`, "{\"k\xff\": 1}", true},
	{"utf8", `{"k\ufffd": [1]}`, "{\"k\xff\": 1, \"k\xfe\": 2}", false},

	// What json.Unmarshal rejects does not match, wherever it sits.
	{"invalid", `{"a": [1]}`, `{{{`, false},
	{"invalid", `{"a": [1]}`, ``, false},
	{"invalid", `{"a": [1]}`, `{"a": 1} x`, false},
	{"invalid", `{"a": [1]}`, `{"a": 1}{}`, false},
	{"invalid", `{"a": [1]}`, `{"a": 1`, false},
	{"invalid", `{"a": [1]}`, `{"a": 1, "b": [1, {"c": tru}]}`, false},
	{"invalid", `{"a": [1]}`, `{"a": 1, "b": "open`, false},
	{"invalid", `{"a": [1]}`, `{"a": 1, "b"}`, false},
	{"invalid", `{"a": [1]}`, `{"a": 1,}`, false},
	{"invalid", `{"a": [1]}`, `{"a" 1}`, false},
	{"invalid", `{"a": [1]}`, `{a: 1}`, false},
	{"invalid", `{"a": [1]}`, `[{"a": 1}]`, false},
	{"invalid", `{"a": [1]}`, `"a"`, false},
	{"invalid", `{"a": [1]}`, `1`, false},
	{"invalid", `{"a": [{"exists": false}]}`, `{"b": nulll}`, false},
}

// reference is what MatchJSON must agree with.
func reference(p *Pattern, raw []byte) bool {
	var doc map[string]any
	return json.Unmarshal(raw, &doc) == nil && p.Match(doc)
}

func TestMatchCases(t *testing.T) {
	for _, c := range matchCases {
		p, err := Compile([]byte(c.pat))
		if err != nil {
			t.Fatalf("%s: compile %s: %v", c.name, c.pat, err)
		}
		if got := p.MatchJSON([]byte(c.doc)); got != c.want {
			t.Errorf("%s: pattern %s on %q: MatchJSON = %v, want %v", c.name, c.pat, c.doc, got, c.want)
		}
		if got := reference(p, []byte(c.doc)); got != c.want {
			t.Errorf("%s: pattern %s on %q: reference = %v, want %v", c.name, c.pat, c.doc, got, c.want)
		}
	}
}

// TestNestingDepthLimit pins the scanner to encoding/json's limit of
// 10000 nested containers, in skipped and in named values.
func TestNestingDepthLimit(t *testing.T) {
	p := MustCompile(`{"a": [{"exists": true}], "z": [{"exists": false}]}`)
	for _, key := range []string{"a", "skipped"} {
		for depth, want := range map[int]bool{9999: true, 10000: false} {
			// The document itself is one level.
			doc := `{"a": 1, "` + key + `": ` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
			if got := p.MatchJSON([]byte(doc)); got != want {
				t.Errorf("key %s, %d arrays deep: MatchJSON = %v, want %v", key, depth, got, want)
			}
			if got := reference(p, []byte(doc)); got != want {
				t.Errorf("key %s, %d arrays deep: reference = %v, want %v", key, depth, got, want)
			}
		}
	}
	// 9999 objects inside the document: 10000 levels.
	nested := strings.Repeat(`{"o":`, 9998) + `{}` + strings.Repeat(`}`, 9998)
	if doc := []byte(`{"a": ` + nested + `}`); !p.MatchJSON(doc) || !reference(p, doc) {
		t.Error("10000 levels of objects rejected")
	}
	if doc := []byte(`{"a": {"o":` + nested + `}}`); p.MatchJSON(doc) || reference(p, doc) {
		t.Error("10001 levels of objects accepted")
	}
}

// TestManyFields covers a pattern object naming more keys than one
// word of the scan's per-object state holds.
func TestManyFields(t *testing.T) {
	pat := map[string]any{}
	doc := map[string]any{}
	for i := 0; i < 150; i++ {
		key := "k" + strings.Repeat("x", i)
		pat[key] = []any{float64(i)}
		doc[key] = i
	}
	patJSON, _ := json.Marshal(pat)
	p, err := Compile(patJSON)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(doc)
	if !p.MatchJSON(raw) || !reference(p, raw) {
		t.Fatal("full document does not match")
	}
	doc["k"+strings.Repeat("x", 140)] = -1
	raw, _ = json.Marshal(doc)
	if p.MatchJSON(raw) || reference(p, raw) {
		t.Fatal("document with one wrong field matches")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		``,
		`[]`,
		`{}`,
		`{"a": []}`,
		`{"a": "bare"}`,
		`{"a": [{"prefix": 5}]}`,
		`{"a": [{"numeric": ["~", 1]}]}`,
		`{"a": [{"numeric": [">"]}]}`,
		`{"a": [{"exists": "yes"}]}`,
		`{"a": [{"unknown-op": 1}]}`,
		`{"a": [{"prefix": "x", "suffix": "y"}]}`,
		`{"a": {"nested": {}}}`,
		`{"a": [["x"]]}`,
		`{"a": [{"anything-but": {"prefix": "x"}}]}`,
		`{"a": [{"anything-but": ["x", ["y"]]}]}`,
	}
	for _, src := range bad {
		if _, err := Compile([]byte(src)); err == nil {
			t.Errorf("Compile(%s) succeeded, want error", src)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	MustCompile(`{"a": "bad"}`)
}

// Property: a literal pattern built from a document's own field always
// matches that document, decoded or raw.
func TestSelfPatternProperty(t *testing.T) {
	f := func(key string, val string) bool {
		if key == "" {
			return true
		}
		doc := map[string]any{key: val}
		patDoc := map[string]any{key: []any{val}}
		patJSON, _ := json.Marshal(patDoc)
		p, err := Compile(patJSON)
		if err != nil {
			return false
		}
		raw, _ := json.Marshal(doc)
		return p.Match(doc) && p.MatchJSON(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobMatchEdgeCases(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"", "", true},
		{"*", "", true},
		{"**", "abc", true},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "abc", true},
		{"a*b*c", "acb", false},
		{"*end", "the end", true},
		{"start*", "start here", true},
	}
	for _, c := range cases {
		if got := compileGlob(c.pat).match(value{kind: kindString, s: []byte(c.s)}); got != c.want {
			t.Errorf("glob %q on %q = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

// FuzzMatchJSONEquivalence is the differential test of the raw-byte
// scanner against encoding/json: for any bytes and any pattern of the
// table, MatchJSON answers what Unmarshal + Match answers.
func FuzzMatchJSONEquivalence(f *testing.F) {
	var pats []*Pattern
	index := map[string]uint{}
	for _, c := range matchCases {
		if _, ok := index[c.pat]; !ok {
			index[c.pat] = uint(len(pats))
			pats = append(pats, MustCompile(c.pat))
		}
		f.Add([]byte(c.doc), index[c.pat])
	}
	f.Fuzz(func(t *testing.T, raw []byte, patternIdx uint) {
		p := pats[patternIdx%uint(len(pats))]
		if got, want := p.MatchJSON(raw), reference(p, raw); got != want {
			t.Fatalf("pattern %d on %q: MatchJSON = %v, reference = %v", patternIdx%uint(len(pats)), raw, got, want)
		}
	})
}

// fsmonDocs renders one generated burst the way the fsmon producer
// publishes it (FSEvent.Doc as JSON), split by whether Listing 1 keeps
// the event.
func fsmonDocs(tb testing.TB) (created, other [][]byte) {
	tb.Helper()
	g := fsmon.NewGenerator(fsmon.GeneratorConfig{Seed: 1})
	for _, ev := range g.Burst(time.Unix(1_700_000_000, 0)) {
		raw, err := json.Marshal(ev.Doc())
		if err != nil {
			tb.Fatal(err)
		}
		if ev.Type == fsmon.OpCreate {
			created = append(created, raw)
		} else {
			other = append(other, raw)
		}
	}
	if len(created) == 0 || len(other) == 0 {
		tb.Fatalf("burst has %d created and %d other events", len(created), len(other))
	}
	return created, other
}

var benchSink bool

// BenchmarkMatchJSON is the filter's cost per fsmon event, kept and
// dropped. It fails if either allocates: the trigger runs this on every
// event it reads.
func BenchmarkMatchJSON(b *testing.B) {
	p := MustCompile(`{"value": {"event_type": ["created"]}}`)
	created, other := fsmonDocs(b)
	for _, c := range []struct {
		name string
		docs [][]byte
		want bool
	}{{"match", created, true}, {"nomatch", other, false}} {
		b.Run(c.name, func(b *testing.B) {
			allocs := testing.AllocsPerRun(10, func() {
				for _, d := range c.docs {
					if p.MatchJSON(d) != c.want {
						b.Fatalf("MatchJSON(%s) = %v", d, !c.want)
					}
				}
			})
			if allocs != 0 {
				b.Fatalf("%v allocations over %d documents, want 0", allocs, len(c.docs))
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(c.docs[0])))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = p.MatchJSON(c.docs[i%len(c.docs)])
			}
		})
	}
}
