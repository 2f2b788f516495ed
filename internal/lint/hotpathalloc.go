package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAllocScope limits where hotpathalloc reports: the packages whose
// steady-state code runs inside the federated round loop. Reachability is
// computed over the whole program, but a hot closure living in, say, a CLI
// package is that package's own business.
var HotPathAllocScope = []string{
	"goldfish/internal/tensor",
	"goldfish/internal/nn",
	"goldfish/internal/fed",
	"goldfish/internal/attack",
	"goldfish/internal/metrics",
}

// HotPathAllocAnalyzer flags allocations reachable from //goldfish:hotpath
// roots.
var HotPathAllocAnalyzer = &Analyzer{
	Name: "hotpathalloc",
	Doc: `flag allocations in functions reachable from //goldfish:hotpath roots

The paper's efficiency claim lives in the round-loop hot path: training
rounds, tensor kernels and probe scoring run once per round per client, so a
per-call make/append/new or allocating constructor there turns into GC
pressure at fleet scale. This analyzer walks the static call graph from every
function marked //goldfish:hotpath — conservatively following interface
dispatch and function values — and flags, inside the reachable set (scoped to
internal/tensor, nn, fed, attack and metrics): the builtins make, new and
append; slice, map and &composite literals; and calls to module-internal New*
constructors. //goldfish:coldpath on a declaration cuts its subtree out of
reachability (setup, per-cell plumbing, allocating constructors whose hot
call sites are what get flagged); //goldfish:allocok suppresses one line (the
escape for grow-once scratch and documented defensive copies).`,
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	if !inScope(pass.Pkg.Path, HotPathAllocScope) {
		return nil
	}
	hot := pass.Prog.HotPaths()
	for _, file := range pass.Pkg.Files {
		allocOK := directiveLines(pass.Pkg.Fset, file, AllocOKDirective)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				node := pass.Prog.NodeOf(n)
				if node == nil {
					return true // bodyless decl
				}
				root, reachable := hot[node.Key]
				if !reachable {
					return true // literals inside are separate nodes; keep walking
				}
				checkHotFunc(pass, node, root, allocOK)
				return true
			}
			return true
		})
	}
	return nil
}

// checkHotFunc flags the allocation sites in one hot function's own body
// (nested literals are their own nodes with their own temperature).
func checkHotFunc(pass *Pass, node *FuncNode, root string, allocOK map[int]bool) {
	info := pass.Pkg.Info
	report := func(pos token.Pos, format string, args ...any) {
		if allocOK[pass.Pkg.Fset.Position(pos).Line] {
			return
		}
		args = append(args, root)
		pass.Reportf(pos, format+" in a hot path (reachable from %s); reuse scratch, or annotate %s / %s",
			append(args, ColdPathDirective, AllocOKDirective)...)
	}
	node.InspectOwn(func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			switch fun := unparen(e.Fun).(type) {
			case *ast.Ident:
				if b, ok := info.Uses[fun].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new", "append":
						report(e.Pos(), "%s allocates", b.Name())
					}
				}
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
					if moduleConstructor(fn) {
						report(e.Pos(), "constructor %s allocates", fn.FullName())
					}
				}
			}
			if fn, ok := unparen(e.Fun).(*ast.Ident); ok {
				if f, ok2 := info.Uses[fn].(*types.Func); ok2 && moduleConstructor(f) {
					report(e.Pos(), "constructor %s allocates", f.FullName())
				}
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[ast.Expr(e)]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				report(e.Pos(), "slice literal allocates")
			case *types.Map:
				report(e.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := unparen(e.X).(*ast.CompositeLit); ok {
					report(e.Pos(), "&composite literal allocates")
				}
			}
		}
		return true
	})
}

// moduleConstructor reports whether fn is a module-internal New* constructor.
// Their internal allocations are expected (the constructor is annotated
// //goldfish:coldpath), so it is each hot *call site* that gets flagged.
func moduleConstructor(fn *types.Func) bool {
	if fn.Pkg() == nil || !strings.HasPrefix(fn.Name(), "New") {
		return false
	}
	path := fn.Pkg().Path()
	return path == "goldfish" || strings.HasPrefix(path, "goldfish/")
}
