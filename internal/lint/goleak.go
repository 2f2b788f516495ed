package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoleakAnalyzer flags goroutines spawned without a visible join or
// cancellation edge.
var GoleakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc: `flag goroutines spawned without a join or cancellation edge

Every go statement in non-test code must carry visible evidence that the
goroutine terminates or is collected: a sync.WaitGroup Done in its body
(paired with the spawner's Add), a context Done/Err consultation so
cancellation reaches it, a receive or range over a channel the package
closes, or a send on a channel the spawning function receives from
(join-by-result). A goroutine with none of these is a leak candidate: under
the fleet-scheduler direction, cells dispatched to remote workers must not
strand goroutines per round. For named callees the call-graph layer supplies
the body. Deliberate process-lifetime goroutines (daemon pools, servers
joined by Shutdown) carry //goldfish:goleakok with the lifecycle documented
in the comment.`,
	Run: runGoleak,
}

func runGoleak(pass *Pass) error {
	info := pass.Pkg.Info
	// Channels the package closes anywhere: a receive/range over one of
	// these is a join edge (close broadcasts termination).
	closed := closedChannels(pass.Pkg)
	for _, file := range pass.Pkg.Files {
		ok := directiveLines(pass.Pkg.Fset, file, GoleakOKDirective)
		ast.Inspect(file, func(n ast.Node) bool {
			fd, isFunc := n.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				return true
			}
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				g, isGo := m.(*ast.GoStmt)
				if !isGo {
					return true
				}
				if ok[pass.Pkg.Fset.Position(g.Pos()).Line] {
					return true
				}
				if goroutineJoined(pass, info, closed, fd, g) {
					return true
				}
				indent := indentFor(pass, g.Pos())
				fix := SuggestedFix{
					Message: "annotate the deliberate goroutine lifecycle with //goldfish:goleakok",
					Edits: []TextEdit{pass.Edit(g.Pos(), g.Pos(),
						GoleakOKDirective+" — TODO(goldfishlint): document the join/cancel story\n"+indent)},
				}
				pass.ReportfFix(g.Pos(), fix,
					"goroutine has no join or cancellation edge (WaitGroup Done, ctx.Done/Err, closed-channel receive, or result send); document the lifecycle with %s if it is process-lifetime", GoleakOKDirective)
				return true
			})
			return false // decls handled; literals inside were inspected above
		})
	}
	return nil
}

// goroutineJoined reports whether the go statement has any accepted
// termination evidence.
func goroutineJoined(pass *Pass, info *types.Info, closed map[types.Object]bool, enclosing *ast.FuncDecl, g *ast.GoStmt) bool {
	body := goroutineBody(pass, info, g.Call)
	if body == nil {
		// Callee body not loaded (stdlib, export-data-only): treat a context
		// argument as cancellation evidence, otherwise demand the directive.
		for _, arg := range g.Call.Args {
			if tv, ok := info.Types[arg]; ok && tv.Type != nil && isContextType(tv.Type) {
				return true
			}
		}
		return false
	}
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Done":
					// wg.Done() joins; ctx.Done() receives cancellation.
					if isWaitGroup(info, sel.X) || isContextExpr(info, sel.X) {
						joined = true
					}
				case "Err":
					if isContextExpr(info, sel.X) {
						joined = true
					}
				}
			}
		case *ast.UnaryExpr:
			// <-ch where the package closes ch.
			if x.Op == token.ARROW {
				if obj := rootObject(info, x.X); obj != nil && closed[obj] {
					joined = true
				}
			}
		case *ast.RangeStmt:
			// for … range ch terminates when the package closes ch.
			if _, isChan := typeOf(info, x.X).(*types.Chan); isChan {
				if obj := rootObject(info, x.X); obj != nil && closed[obj] {
					joined = true
				}
			}
		case *ast.SendStmt:
			// Join-by-result: the goroutine sends on a channel the spawning
			// function receives from.
			if obj := rootObject(info, x.Chan); obj != nil && receivesFrom(info, enclosing.Body, obj) {
				joined = true
			}
		}
		return !joined
	})
	return joined
}

// goroutineBody resolves the spawned call to a loaded body: a function
// literal directly, a declared function or method through the call graph.
func goroutineBody(pass *Pass, info *types.Info, call *ast.CallExpr) *ast.BlockStmt {
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || pass.Prog == nil {
		return nil
	}
	if node, loaded := pass.Prog.Nodes[funcKey(fn)]; loaded {
		return node.Body
	}
	return nil
}

// closedChannels collects every channel-rooted object the package passes to
// close(), across all files — the close may live far from the spawn.
func closedChannels(pkg *Package) map[types.Object]bool {
	closed := map[types.Object]bool{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if b, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "close" {
				return true
			}
			if obj := rootObject(pkg.Info, call.Args[0]); obj != nil {
				closed[obj] = true
			}
			return true
		})
	}
	return closed
}

// receivesFrom reports whether body contains a receive (<-obj or range obj)
// from the channel object outside any nested function literal.
func receivesFrom(info *types.Info, body ast.Node, obj types.Object) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && rootObject(info, x.X) == obj {
				found = true
			}
		case *ast.RangeStmt:
			if rootObject(info, x.X) == obj {
				if _, isChan := typeOf(info, x.X).(*types.Chan); isChan {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isWaitGroup reports whether the expression's type is sync.WaitGroup (or a
// pointer to it).
func isWaitGroup(info *types.Info, e ast.Expr) bool {
	t := typeOf(info, e)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// isContextExpr reports whether the expression is a context.Context value.
func isContextExpr(info *types.Info, e ast.Expr) bool {
	return isContextType(typeOf(info, e))
}

// typeOf returns the expression's type, or types.Typ[types.Invalid].
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

// indentFor reproduces the leading indentation of pos's line (gofmt
// guarantees tab indentation), so an inserted directive line aligns with the
// statement it annotates.
func indentFor(pass *Pass, pos token.Pos) string {
	col := pass.Pkg.Fset.Position(pos).Column
	if col < 1 {
		return ""
	}
	return strings.Repeat("\t", col-1)
}

// rootObject resolves the object at the base of an lvalue chain.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			if obj, ok := info.Defs[x]; ok && obj != nil {
				return obj
			}
			return info.Uses[x]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}
