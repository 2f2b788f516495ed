package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrdropScopes lists the package-path prefixes where discarding an error is
// forbidden: the report-producing packages (whose silent failures corrupt
// the byte-deterministic reports CI diffs) and the server/CLI surface
// (whose silent failures strand users without a message).
var ErrdropScopes = []string{
	"goldfish/internal/scenario",
	"goldfish/internal/attack",
	"goldfish/internal/stats",
	"goldfish/internal/obs",
	"goldfish/internal/serve",
	"goldfish/cmd",
}

// ErrdropAnalyzer forbids discarded error values in the scoped packages.
var ErrdropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc: `forbid discarded errors in report-producing and server packages

Inside the scoped packages (scenario, attack, stats, obs, cmd/*) an
error-typed value must be consulted, not discarded: neither assigned to
blank (_ = f(), n, _ := g()) nor dropped as an ignored return (a bare f()
expression statement). Print-family calls (fmt.Fprint*/Print*) and the
documented never-fail writers (bytes.Buffer, strings.Builder) are exempt;
defer statements are out of scope (a deferred cleanup error has no frame to
return through). //goldfish:errok on the line is the escape for discards
whose impossibility is documented.`,
	Run: runErrdrop,
}

func runErrdrop(pass *Pass) error {
	if !inScope(pass.Pkg.Path, ErrdropScopes) {
		return nil
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ok := directiveLines(pass.Pkg.Fset, file, ErrOKDirective)
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.DeferStmt:
				return false
			case *ast.ExprStmt:
				call, isCall := s.X.(*ast.CallExpr)
				if !isCall || ok[pass.Pkg.Fset.Position(s.Pos()).Line] {
					return true
				}
				if allowedErrDiscard(info, call) {
					return true
				}
				if hasErrResult(info, call) {
					pass.Reportf(s.Pos(), "error result of %s dropped; handle or return it", callLabel(info, call))
				}
				return true
			case *ast.AssignStmt:
				if ok[pass.Pkg.Fset.Position(s.Pos()).Line] {
					return true
				}
				checkBlankErrAssign(pass, s)
				return true
			}
			return true
		})
	}
	return nil
}

// hasErrResult reports whether any result of the call is error-typed.
func hasErrResult(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	tuple, isTuple := tv.Type.(*types.Tuple)
	if !isTuple {
		return isErrorType(tv.Type)
	}
	for i := 0; i < tuple.Len(); i++ {
		if isErrorType(tuple.At(i).Type()) {
			return true
		}
	}
	return false
}

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// allowedErrDiscard exempts calls whose error is conventionally ignored:
// the fmt print family, and writes to the never-fail in-memory writers.
func allowedErrDiscard(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (path == "bytes" && name == "Buffer") || (path == "strings" && name == "Builder")
}

// checkBlankErrAssign flags assignments that discard an error into blank:
// `_ = f()` whole-sale, and `n, _ := g()` when the blanked position is the
// error.
func checkBlankErrAssign(pass *Pass, s *ast.AssignStmt) {
	info := pass.Pkg.Info
	// Single call RHS fanning out to the LHS tuple.
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		call, isCall := s.Rhs[0].(*ast.CallExpr)
		if !isCall {
			return
		}
		tuple, isTuple := info.Types[call].Type.(*types.Tuple)
		if !isTuple || tuple.Len() != len(s.Lhs) {
			return
		}
		for i, lhs := range s.Lhs {
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
				pass.Reportf(lhs.Pos(), "error result of %s discarded into blank; handle or return it", callLabel(info, call))
				return
			}
		}
		return
	}
	// Element-wise assignments: flag `_ = expr` where expr is an error (or a
	// single-error-result call).
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		if !isBlank(lhs) {
			continue
		}
		rhs := s.Rhs[i]
		tv, ok := info.Types[rhs]
		if !ok || tv.Type == nil || !isErrorType(tv.Type) {
			continue
		}
		if call, isCall := rhs.(*ast.CallExpr); isCall {
			if allowedErrDiscard(info, call) {
				continue
			}
			if len(s.Lhs) == 1 {
				pass.Reportf(lhs.Pos(), "error result of %s discarded into blank; handle or return it", callLabel(info, call))
				continue
			}
		}
		pass.Reportf(lhs.Pos(), "error value discarded into blank; handle or return it")
	}
}

// inScope reports whether the import path is one of the prefixes or a
// package below one.
func inScope(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// isBlank reports whether the expression is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// callLabel renders a short name for the called function for messages:
// declared functions, methods and builtins by their bare name, dynamic calls
// through function values as "call".
func callLabel(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "call"
	}
	switch obj := info.Uses[id].(type) {
	case *types.Func:
		return obj.Name()
	case *types.Builtin:
		return obj.Name()
	case nil:
		return id.Name
	}
	return "call"
}
