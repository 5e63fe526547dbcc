package pit

import (
	"bytes"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/datamodel"
	"repro/internal/rng"
)

// customPitSource is the example whose embedded Pit seeds the fuzzer, so
// the corpus tracks the document the example actually parses.
const customPitSource = "../../examples/custompit/main.go"

// examplePit extracts the backquoted telemetryPit constant from the
// custompit example's source.
func examplePit(tb testing.TB) string {
	src, err := os.ReadFile(customPitSource)
	if err != nil {
		tb.Fatal(err)
	}
	const open = "const telemetryPit = `"
	s := string(src)
	i := strings.Index(s, open)
	if i < 0 {
		tb.Fatalf("%s: no telemetryPit constant", customPitSource)
	}
	s = s[i+len(open):]
	j := strings.IndexByte(s, '`')
	if j < 0 {
		tb.Fatalf("%s: unterminated telemetryPit constant", customPitSource)
	}
	return s[:j]
}

// maxFuzzInstance caps the instance FuzzParseDocument generates: a Pit
// may legally declare a gigabyte blob or a million-element array, which is
// a configuration choice, not a parser bug, and must not exhaust the
// fuzzer's memory.
const maxFuzzInstance = 1 << 16

// randomBound over-estimates the cost of one random instance of c — its
// rendered bytes plus one per node — saturating just past maxFuzzInstance.
func randomBound(c *datamodel.Chunk) int {
	n := 1
	switch c.Kind {
	case datamodel.Number:
		n += c.Width
	case datamodel.String, datamodel.Blob:
		n += max(c.Size, c.MinSize+32, c.MaxSize, len(c.DefaultBytes))
	case datamodel.Array:
		count := c.MaxCount
		if count <= 0 {
			count = 4
		}
		el := randomBound(c.Children[0])
		if el > maxFuzzInstance/count {
			return maxFuzzInstance + 1
		}
		n += count * el
	default:
		for _, ch := range c.Children {
			n += randomBound(ch)
		}
	}
	return min(n, maxFuzzInstance+1)
}

// FuzzParseDocument pins the Pit boundary: Pit XML and <StateModel>
// elements come from user files, so any byte string must either parse
// into a document whose data models and state machines all validate, or
// fail with an error — never panic. An accepted data model must also
// generate, render and crack a random instance without panicking.
func FuzzParseDocument(f *testing.F) {
	f.Add([]byte(samplePit))
	f.Add([]byte(statefulPit))
	f.Add([]byte(examplePit(f)))
	names := make([]string, 0, len(parseErrorDocs))
	for name := range parseErrorDocs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add([]byte(parseErrorDocs[name]))
	}
	f.Add([]byte(`<Pit><DataModel name="D"><Number name="n" size="8"/></DataModel>` +
		`<StateModel name="SM" initialState="ghost"><State name="a"><Action ref="D"/></State></StateModel></Pit>`))
	f.Add([]byte(`<Pit><DataModel name="D"><Number name="n" size="8"/></DataModel>` +
		`<StateModel name="SM" maxSteps="-1"><State name="a"><Action ref="D" next="a"/></State></StateModel></Pit>`))

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ParseDocument(bytes.NewReader(data))
		if err != nil {
			if doc != nil {
				t.Fatalf("error %v came with a document", err)
			}
			return
		}
		for _, m := range doc.Models {
			if err := m.Validate(); err != nil {
				t.Fatalf("accepted data model %q fails Validate: %v", m.Name, err)
			}
			bound := 0
			for _, c := range m.Fields {
				bound += randomBound(c)
			}
			if bound <= maxFuzzInstance {
				_, _ = m.Crack(m.GenerateRandom(rng.New(1)).Bytes())
			}
		}
		for _, sm := range doc.StateModels {
			if err := sm.Validate(); err != nil {
				t.Fatalf("accepted state model %q fails Validate: %v", sm.Name, err)
			}
		}
	})
}
