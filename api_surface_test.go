package goldfish_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

const (
	apiGolden     = "api/goldfish.txt"
	apiRegenerate = "go test . -run '^TestAPISurface$' -update"
)

// TestAPISurface byte-compares the exported surface of package goldfish with
// the committed golden, so a public API change is always a reviewed diff.
// The package is read from its own compiled export data, so the test neither
// parses nor type-checks source. After an intentional change, regenerate
// with the -update flag of this package's tests:
//
//	go test . -run '^TestAPISurface$' -update
func TestAPISurface(t *testing.T) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", "goldfish").Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exports[path] = file
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	pkg, err := importer.ForCompiler(token.NewFileSet(), "gc", lookup).Import("goldfish")
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(Surface(pkg))

	// The flag is the one scenario_golden_test.go registers for the whole
	// test binary.
	if flag.Lookup("update").Value.String() == "true" {
		if err := os.WriteFile(apiGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", apiGolden, len(got))
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatalf("%v (generate it with %s)", err, apiRegenerate)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
		i++
	}
	var g, w string
	if i < len(gotLines) {
		g = gotLines[i]
	}
	if i < len(wantLines) {
		w = wantLines[i]
	}
	t.Fatalf("exported API surface differs from %s at line %d:\n  have: %s\n  want: %s\nif intentional, regenerate with: %s",
		apiGolden, i+1, g, w, apiRegenerate)
}

// Surface renders the package's exported API in a canonical, deterministic
// text form: one header line, then every exported const, var, func and type
// in scope order (alphabetical), with exported struct fields, interface
// methods and the exported method set indented under each type. Types from
// other packages print with their full import paths; the package's own types
// print bare.
func Surface(pkg *types.Package) string {
	var b strings.Builder
	qual := types.RelativeTo(pkg)
	fmt.Fprintf(&b, "package %s // import %q\n", pkg.Name(), pkg.Path())
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if !token.IsExported(name) {
			continue
		}
		switch o := scope.Lookup(name).(type) {
		case *types.Const:
			fmt.Fprintf(&b, "const %s %s = %s\n", name, types.TypeString(o.Type(), qual), o.Val())
		case *types.Var:
			fmt.Fprintf(&b, "var %s %s\n", name, types.TypeString(o.Type(), qual))
		case *types.Func:
			fmt.Fprintf(&b, "func %s%s\n", name, signatureString(o.Type().(*types.Signature), qual))
		case *types.TypeName:
			writeTypeSurface(&b, o, qual)
		}
	}
	return b.String()
}

func writeTypeSurface(b *strings.Builder, o *types.TypeName, qual types.Qualifier) {
	name := o.Name()
	if o.IsAlias() {
		// Unalias so the right-hand side names the aliased type (with its
		// package path), not the alias itself.
		fmt.Fprintf(b, "type %s = %s\n", name, types.TypeString(types.Unalias(o.Type()), qual))
	} else {
		switch u := o.Type().Underlying().(type) {
		case *types.Struct:
			fmt.Fprintf(b, "type %s struct\n", name)
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i)
				if !f.Exported() {
					continue
				}
				line := fmt.Sprintf("    %s %s", f.Name(), types.TypeString(f.Type(), qual))
				if tag := u.Tag(i); tag != "" {
					line += " " + fmt.Sprintf("%q", tag)
				}
				fmt.Fprintln(b, line)
			}
		case *types.Interface:
			fmt.Fprintf(b, "type %s interface\n", name)
			var methods []string
			for i := 0; i < u.NumMethods(); i++ {
				m := u.Method(i)
				if !m.Exported() {
					continue
				}
				methods = append(methods, fmt.Sprintf("    %s%s", m.Name(), signatureString(m.Type().(*types.Signature), qual)))
			}
			sort.Strings(methods)
			for _, m := range methods {
				fmt.Fprintln(b, m)
			}
		default:
			fmt.Fprintf(b, "type %s %s\n", name, types.TypeString(u, qual))
		}
	}
	// Exported method set through a pointer receiver — the superset callers
	// see. Rendered for aliases too: methods reachable through the alias are
	// part of the surface the alias exposes.
	var methods []string
	mset := types.NewMethodSet(types.NewPointer(o.Type()))
	for i := 0; i < mset.Len(); i++ {
		fn, ok := mset.At(i).Obj().(*types.Func)
		if !ok || !fn.Exported() {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		recv := ""
		if sig.Recv() != nil {
			recv = types.TypeString(sig.Recv().Type(), qual)
		}
		methods = append(methods, fmt.Sprintf("    func (%s) %s%s", recv, fn.Name(), signatureString(sig, qual)))
	}
	sort.Strings(methods)
	for _, m := range methods {
		fmt.Fprintln(b, m)
	}
}

// signatureString renders a signature without its receiver and without the
// leading "func" keyword: "(opts ...Option) (*Engine, error)".
func signatureString(sig *types.Signature, qual types.Qualifier) string {
	noRecv := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return strings.TrimPrefix(types.TypeString(noRecv, qual), "func")
}
