package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under goldfishlint: a static call
// graph over every loaded package, built once per lint.Run and shared by the
// analyzers through Pass.Prog. The graph is a deliberate over-approximation
// (class-hierarchy-analysis style): an interface method call edges to every
// loaded method with the same name and receiver-stripped signature, and a
// call through a function value edges to every address-taken function or
// literal with a matching signature. Over-approximation is the right
// direction for the contracts built on top — a hot-path allocation that is
// only *possibly* reachable from a round loop still deserves a look — and
// every verdict has a per-line escape directive.
//
// Nodes are keyed by strings, not object identity: packages are type-checked
// separately, so the *types.Func for one function differs between its
// source-checked and export-data-imported incarnations, but
// (*types.Func).FullName and the normalized signature strings agree across
// both. Function literals are their own nodes (key: enclosing key + "$" +
// lexical index) so a hot closure returned by a cold constructor keeps its
// own temperature.

// FuncNode is one function, method, function literal, or package initializer
// in the call graph.
type FuncNode struct {
	// Key identifies the node: (*types.Func).FullName for declared
	// functions/methods, parent key + "$" + lexical index for function
	// literals, and importPath + ".init#vars" for the synthetic node holding a
	// package's var-initializer expressions.
	Key string
	// Pkg is the loaded package containing the node's source.
	Pkg *Package
	// Decl is the defining *ast.FuncDecl or *ast.FuncLit (nil for the
	// synthetic package-initializer node).
	Decl ast.Node
	// Body is the node's statement body (nil for bodyless decls).
	Body *ast.BlockStmt
	// Hot marks a //goldfish:hotpath root; Cold a //goldfish:coldpath cut.
	Hot, Cold bool
	// Calls are the callee keys, sorted and deduplicated. Keys may name
	// functions outside the loaded packages (stdlib, export-data-only); those
	// have no FuncNode and terminate traversals.
	Calls []string
}

// Program is the whole-load call graph.
type Program struct {
	// Pkgs are the packages the program was built from, in load order.
	Pkgs []*Package
	// Nodes maps node key to node for every function with loaded source.
	Nodes map[string]*FuncNode

	byDecl map[ast.Node]*FuncNode
	// hot caches HotPaths: a whole-program result every package's pass reads.
	hot map[string]string
}

// NodeOf returns the call-graph node for a FuncDecl or FuncLit of a loaded
// package, or nil.
func (p *Program) NodeOf(decl ast.Node) *FuncNode { return p.byDecl[decl] }

// InspectOwn walks the node's own body in source order, not descending into
// nested function literals — those are separate nodes with their own
// reachability verdicts.
func (n *FuncNode) InspectOwn(f func(ast.Node) bool) {
	if n.Body == nil {
		return
	}
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return f(x)
	})
}

// Keys returns every node key, sorted.
func (p *Program) Keys() []string {
	keys := make([]string, 0, len(p.Nodes))
	for k := range p.Nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Edges enumerates the call graph as "caller -> callee" strings in a
// deterministic order: node keys sorted, then each node's callees in their
// stored sorted order. Two builds over the same sources must produce
// identical enumerations — a property the test suite pins, since analyzer
// output ordering (and therefore CI byte-diffs) rides on it.
func (p *Program) Edges() []string {
	var edges []string
	for _, k := range p.Keys() {
		for _, callee := range p.Nodes[k].Calls {
			edges = append(edges, k+" -> "+callee)
		}
	}
	return edges
}

// HotPaths returns, for every node reachable from a //goldfish:hotpath root
// without passing through a //goldfish:coldpath cut, the key of the root it
// was first reached from (roots map to themselves). Breadth-first from the
// sorted root list, so provenance is deterministic.
func (p *Program) HotPaths() map[string]string {
	if p.hot != nil {
		return p.hot
	}
	from := map[string]string{}
	var queue []string
	for _, k := range p.Keys() {
		n := p.Nodes[k]
		if n.Hot && !n.Cold {
			from[k] = k
			queue = append(queue, k)
		}
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		node, ok := p.Nodes[k]
		if !ok {
			continue
		}
		for _, callee := range node.Calls {
			if _, seen := from[callee]; seen {
				continue
			}
			cn, loaded := p.Nodes[callee]
			if !loaded || cn.Cold {
				continue
			}
			from[callee] = from[k]
			queue = append(queue, callee)
		}
	}
	p.hot = from
	return from
}

// BuildProgram constructs the call graph over the loaded packages. Two
// passes: the first creates nodes and global indexes (methods by
// name+signature for interface dispatch, address-taken functions by
// signature for function-value calls), the second resolves every call site
// against them.
func BuildProgram(pkgs []*Package) *Program {
	b := &progBuilder{
		prog: &Program{
			Pkgs:   pkgs,
			Nodes:  map[string]*FuncNode{},
			byDecl: map[ast.Node]*FuncNode{},
		},
		methods:   map[string][]string{},
		addrTaken: map[string][]string{},
	}
	for _, pkg := range pkgs {
		b.collectPackage(pkg)
	}
	// Interface method values (x.M with x an interface, used as a value)
	// dispatch dynamically; expand them against the method index only after
	// every package contributed its methods.
	for _, fn := range b.pendingIface {
		if sig, ok := fn.Type().(*types.Signature); ok {
			k := sigKey(sig)
			b.addrTaken[k] = append(b.addrTaken[k], b.methods[fn.Name()+"|"+k]...)
		}
	}
	// The value-flow layer (flow.go) sharpens function-value dispatch: calls
	// through a tracked parameter, variable, field or return value resolve to
	// the values that actually flow there instead of every same-signature
	// function in the module.
	b.flow = b.buildFlow()
	for _, n := range b.order {
		b.resolveCalls(n)
	}
	return b.prog
}

type progBuilder struct {
	prog  *Program
	order []*FuncNode
	// methods indexes loaded concrete methods by name + "|" + sigKey for
	// CHA-style interface dispatch.
	methods map[string][]string
	// addrTaken indexes address-taken functions, methods and every function
	// literal by sigKey for function-value dispatch.
	addrTaken map[string][]string
	// pendingIface holds interface method values whose concrete expansion
	// waits until the method index is complete.
	pendingIface []*types.Func
	// flow is the value-flow graph used to sharpen function-value dispatch.
	flow *flowGraph
}

// funcKey names a declared function or method: (*types.Func).FullName, which
// is stable across source-checked and export-data-imported instances of the
// same function. (init functions share the FullName "pkg.init"; their nodes
// are disambiguated with a per-package sequence number at creation.)
func funcKey(fn *types.Func) string {
	return fn.FullName()
}

func (b *progBuilder) addNode(key string, pkg *Package, decl ast.Node, body *ast.BlockStmt) *FuncNode {
	n := &FuncNode{Key: key, Pkg: pkg, Decl: decl, Body: body}
	b.prog.Nodes[key] = n
	if decl != nil {
		b.prog.byDecl[decl] = n
	}
	b.order = append(b.order, n)
	return n
}

func (b *progBuilder) collectPackage(pkg *Package) {
	initSeq := 0
	for _, file := range pkg.Files {
		hot := directiveLines(pkg.Fset, file, HotPathDirective)
		cold := directiveLines(pkg.Fset, file, ColdPathDirective)
		var initNode *FuncNode
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
				if !ok || d.Body == nil {
					continue
				}
				key := funcKey(fn)
				if d.Name.Name == "init" && d.Recv == nil {
					key = fmt.Sprintf("%s#%d", key, initSeq)
					initSeq++
				}
				n := b.addNode(key, pkg, d, d.Body)
				line := pkg.Fset.Position(d.Pos()).Line
				n.Hot, n.Cold = hot[line], cold[line]
				if d.Recv != nil {
					sig, ok := fn.Type().(*types.Signature)
					if ok {
						id := fn.Name() + "|" + sigKey(sig)
						b.methods[id] = append(b.methods[id], key)
					}
				}
				b.collectLits(n, d.Body, hot, cold)
			case *ast.GenDecl:
				// Package-level var initializers run at program start; they get
				// one synthetic node per file so literals and calls inside them
				// are part of the graph.
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) == 0 {
						continue
					}
					if initNode == nil {
						initNode = b.addNode(pkg.Path+".init#vars:"+pkg.Fset.Position(file.Pos()).Filename, pkg, nil, nil)
					}
					for _, v := range vs.Values {
						b.collectLitsExpr(initNode, v, hot, cold)
					}
				}
			}
		}
		b.collectAddrTaken(pkg, file)
	}
}

// collectLits creates child nodes for the function literals nested directly
// or transitively in body, keyed by lexical index under their innermost
// enclosing node.
func (b *progBuilder) collectLits(parent *FuncNode, body ast.Node, hot, cold map[int]bool) {
	idx := 0
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		child := b.addNode(fmt.Sprintf("%s$%d", parent.Key, idx), parent.Pkg, lit, lit.Body)
		idx++
		line := parent.Pkg.Fset.Position(lit.Pos()).Line
		child.Hot, child.Cold = hot[line], cold[line]
		if sig, ok := parent.Pkg.Info.Types[lit].Type.(*types.Signature); ok {
			k := sigKey(sig)
			b.addrTaken[k] = append(b.addrTaken[k], child.Key)
		}
		b.collectLits(child, lit.Body, hot, cold)
		return false // children of this lit belong to it, not to parent
	})
}

func (b *progBuilder) collectLitsExpr(parent *FuncNode, expr ast.Expr, hot, cold map[int]bool) {
	b.collectLits(parent, expr, hot, cold)
}

// collectAddrTaken indexes every function or method referenced outside a
// call position — assigned, passed, returned or stored, and therefore
// callable through any function value of the same signature. Selector Sel
// idents are handled through their SelectorExpr only, so a called method is
// never miscounted as a bare reference.
func (b *progBuilder) collectAddrTaken(pkg *Package, file *ast.File) {
	inCallPos := map[ast.Expr]bool{}
	selIdent := map[*ast.Ident]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			inCallPos[unparen(e.Fun)] = true
		case *ast.SelectorExpr:
			selIdent[e.Sel] = true
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.Ident:
			if selIdent[e] || inCallPos[ast.Expr(e)] {
				return true
			}
			if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
				b.markAddrTaken(fn)
			}
		case *ast.SelectorExpr:
			if inCallPos[ast.Expr(e)] {
				return true
			}
			if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
				b.markAddrTaken(fn)
			}
		}
		return true
	})
}

func (b *progBuilder) markAddrTaken(fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		b.pendingIface = append(b.pendingIface, fn)
		return
	}
	b.addrTaken[sigKey(sig)] = append(b.addrTaken[sigKey(sig)], funcKey(fn))
}

// resolveCalls walks one node's body (stopping at nested literals, which are
// their own nodes) and records its callee keys.
func (b *progBuilder) resolveCalls(n *FuncNode) {
	callees := map[string]bool{}
	edge := func(key string) {
		if key != "" {
			callees[key] = true
		}
	}
	var walk func(root ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			switch e := x.(type) {
			case *ast.FuncLit:
				if child := b.prog.byDecl[e]; child != nil {
					// Defining a literal conservatively edges to it: literals
					// handed to unloaded callees (sort.Slice, sync.Once.Do)
					// would otherwise be unreachable from any root.
					edge(child.Key)
				}
				return false
			case *ast.CallExpr:
				b.resolveCallExpr(n, e, edge)
				return true
			}
			return true
		})
	}
	switch {
	case n.Body != nil:
		walk(n.Body)
	case n.Decl == nil:
		// Synthetic var-init node: literals under it already have their edges
		// via collectLits + byDecl, but calls in initializer expressions were
		// not walked. Walk every package-level var value in the node's file.
		// (The node key embeds the filename; match by scanning.)
		for _, file := range n.Pkg.Files {
			if !strings.HasSuffix(n.Key, n.Pkg.Fset.Position(file.Pos()).Filename) {
				continue
			}
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							walk(v)
						}
					}
				}
			}
		}
	}
	n.Calls = make([]string, 0, len(callees))
	for k := range callees {
		n.Calls = append(n.Calls, k)
	}
	sort.Strings(n.Calls)
}

func (b *progBuilder) resolveCallExpr(n *FuncNode, call *ast.CallExpr, edge func(string)) {
	info := n.Pkg.Info
	fun := unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	// dynamic resolves a function-value call. The value-flow layer answers
	// precisely when the called expression reads a tracked slot whose contents
	// are fully known; otherwise fall back to every address-taken function
	// with a matching signature (the conservative CHA-style set).
	dynamic := func(t types.Type) {
		if slot := b.flow.callSlot(n.Pkg, fun); slot != nil && !slot.top {
			for key := range slot.keys {
				edge(key)
			}
			return
		}
		sig, ok := t.Underlying().(*types.Signature)
		if !ok {
			return
		}
		for _, key := range b.addrTaken[sigKey(sig)] {
			edge(key)
		}
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			edge(funcKey(obj))
		case *types.Var:
			dynamic(obj.Type())
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					return
				}
				recv := sel.Recv()
				if types.IsInterface(recv) {
					// CHA: every loaded method with this name and
					// receiver-stripped signature is a possible callee.
					if sig, ok := fn.Type().(*types.Signature); ok {
						id := fn.Name() + "|" + sigKey(sig)
						for _, key := range b.methods[id] {
							edge(key)
						}
					}
					return
				}
				edge(funcKey(fn))
			case types.FieldVal:
				dynamic(sel.Type())
			}
			return
		}
		// Package-qualified reference: pkg.Fn or pkg.Var.
		switch obj := info.Uses[f.Sel].(type) {
		case *types.Func:
			edge(funcKey(obj))
		case *types.Var:
			dynamic(obj.Type())
		}
	case *ast.FuncLit:
		if child := b.prog.byDecl[f]; child != nil {
			edge(child.Key)
		}
	default:
		// Call of a call result, index expression, etc.: dispatch on the
		// expression's function type.
		if tv, ok := info.Types[fun]; ok && tv.Type != nil {
			dynamic(tv.Type)
		}
	}
}

// sigKey renders a receiver-stripped signature with full package paths, so
// signatures from source-checked and export-data-imported packages compare
// equal. Parameter and result names are dropped.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	b.WriteByte('(')
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		if sig.Variadic() && i == params.Len()-1 {
			b.WriteString("...")
		}
		b.WriteString(types.TypeString(params.At(i).Type(), nil))
	}
	b.WriteString(")(")
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(results.At(i).Type(), nil))
	}
	b.WriteByte(')')
	return b.String()
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
