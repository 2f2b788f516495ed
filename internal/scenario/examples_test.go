package scenario_test

import (
	"io/fs"
	"path/filepath"
	"testing"

	"goldfish"
	"goldfish/internal/scenario"
)

// TestExampleSpecsParseAndValidate keeps every committed scenario file
// loadable and valid against its resolved preset — client indices and round
// budgets included — so a spec that rots breaks this test, not a CI run
// hours in. It walks examples/scenarios/ recursively (paper/ included);
// baselines/ holds reports, not specs.
func TestExampleSpecsParseAndValidate(t *testing.T) {
	root := filepath.Join("..", "..", "examples", "scenarios")
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "baselines" {
			return filepath.SkipDir
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("expected at least 8 example specs, found %d: %v", len(paths), paths)
	}
	seen := map[string]bool{}
	for _, path := range paths {
		spec, err := scenario.Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if err := goldfish.ValidateScenario(spec); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if spec.Name == "" {
			t.Errorf("%s: spec has no name", path)
		}
		if seen[spec.Name] {
			t.Errorf("%s: duplicate scenario name %q", path, spec.Name)
		}
		seen[spec.Name] = true
		if len(spec.Cells()) == 0 {
			t.Errorf("%s: empty matrix", path)
		}
	}

	// The CI smoke gate needs a genuinely concurrent matrix: at least two
	// strategies crossed with at least two seeds.
	smoke, err := scenario.Load(filepath.Join(root, "smoke.json"))
	if err != nil {
		t.Fatalf("smoke.json: %v", err)
	}
	if len(smoke.Strategies) < 2 {
		t.Errorf("smoke.json has %d strategies, need ≥2", len(smoke.Strategies))
	}
	if len(smoke.SeedList()) < 2 {
		t.Errorf("smoke.json has %d seeds, need ≥2", len(smoke.SeedList()))
	}
	if smoke.Scale != "tiny" {
		t.Errorf("smoke.json runs at scale %q; keep it tiny so CI stays fast", smoke.Scale)
	}
}
