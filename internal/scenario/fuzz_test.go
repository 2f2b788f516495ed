package scenario

import (
	"strings"
	"testing"
)

// FuzzParse hardens the spec parser: arbitrary JSON must never panic, every
// rejection must be a wrapped "scenario:" error (so CLI and API callers can
// attribute it), and anything Parse accepts must re-validate — Parse's
// contract is parse+Validate in one step. The seed corpus below plus the
// committed files under testdata/fuzz/FuzzParse replay as regular test cases
// on every `go test` run, which is the deterministic regression gate; run
// `go test -fuzz=FuzzParse ./internal/scenario` to explore further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// Valid specs across the feature surface.
		`{"dataset":"mnist","strategies":["goldfish"]}`,
		`{"name":"s","dataset":"mnist","scale":"tiny","strategies":["goldfish","retrain"],"seeds":[1,2]}`,
		`{"dataset":"cifar10","strategies":["goldfish"],"repetitions":3,"partition":{"type":"dirichlet","alpha":0.5}}`,
		`{"dataset":"mnist","strategies":["goldfish"],"attack":{"type":"backdoor","client":0,"fraction":0.3,"target_label":0}}`,
		`{"dataset":"mnist","strategies":["goldfish"],"attack":{"types":["backdoor","label-flip","targeted-class"],"fraction":0.3,"target_label":0,"source_class":1,"strength":0.6}}`,
		`{"dataset":"mnist","rounds":4,"strategies":["goldfish"],"attack":{"type":"label-flip","fraction":0.5},"schedule":[{"round":2,"type":"sample","target":"poisoned"}]}`,
		`{"dataset":"mnist","rounds":4,"strategies":["goldfish"],"schedule":[{"round":1,"type":"class","class":3},{"round":2,"type":"client","client":1}]}`,
		// Malformed and hostile inputs.
		``,
		`null`,
		`[]`,
		`"dataset"`,
		`{`,
		`{"dataset":"mnist"`,
		`{"dataset":"mnist","strategies":["goldfish"]}{"x":1}`,
		`{"dataset":"mnist","strategies":["goldfish"],"sheds":[1]}`,
		`{"name":"s","dataset":"mnist","scale":"tiny","strategies":["goldfish","retrain"],"seeds":[1,2],"shards":[1,4]}`,
		`{"dataset":"mnist","strategies":["goldfish","goldfish"]}`,
		`{"dataset":"mnist","strategies":["goldfish"],"seeds":[0]}`,
		`{"dataset":"mnist","strategies":["goldfish"],"attack":{"type":"???"}}`,
		`{"dataset":"mnist","strategies":["goldfish"],"attack":{"type":"backdoor","types":["label-flip"],"fraction":0.1}}`,
		`{"dataset":"mnist","strategies":["goldfish"],"attack":{"type":"targeted-class","fraction":0.1,"target_label":2,"source_class":2}}`,
		`{"dataset":"mnist","strategies":["goldfish"],"schedule":[{"round":-1,"type":"sample","rows":[0]}]}`,
		`{"dataset":"mnist","strategies":["goldfish"],"rounds":-3}`,
		`{"dataset":"mnist","strategies":["goldfish"],"repetitions":4611686018427387904}`,
		`{"dataset":"mnist","strategies":["goldfish"],"seeds":[9223372036854775807,-9223372036854775808]}`,
		"{\"dataset\":\"\u0000\",\"strategies\":[\"\xff\"]}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Parse(b) // must not panic on any input
		if err != nil {
			if !strings.Contains(err.Error(), "scenario:") {
				t.Errorf("rejection not wrapped as a scenario error: %v", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Errorf("Parse accepted a spec Validate rejects: %v", err)
		}
		// The resolved axes of an accepted spec must be well-formed enough
		// to expand the matrix.
		if len(s.Cells()) == 0 {
			t.Error("accepted spec expands to an empty matrix")
		}
	})
}
