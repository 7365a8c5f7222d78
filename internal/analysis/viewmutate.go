package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ViewMutate enforces the publish-then-immutable contract of the
// copy-on-write read views (sqlmini's readView/tableView, and anything
// else that opts in). A type declared
//
//	//qcpa:published <reason>
//
// promises that its values are never mutated once published. The
// analyzer flags every write whose target is reachable through a
// published-typed link — a field assignment, map/slice store, IncDec,
// or delete — unless one of the builder escapes applies:
//
//   - the access path's root is a local variable constructed in the
//     same function from a composite literal or new(T): the value is
//     still being built and has not been published yet (publishLocked's
//     nv, newTableView's tv);
//   - some link in the access path is typed //qcpa:lazycache <reason>:
//     a mutex-serialized, idempotent lazy cache that deliberately lives
//     inside a published value (sqlmini's tableStats).
//
// Writing a published-typed *pointer slot* (t.view = nil) is fine: the
// mutated object is the container, not the view. The analyzer therefore
// inspects the path that OWNS the written memory — for x.f = v that is
// x and its prefixes; for m[k] = v it is m and its prefixes — never the
// written field's own type.
//
// This is a shape check, not an alias analysis: a published pointer
// laundered through an interface or a fresh local escapes it. The
// repo-wide convention it enforces — mutation only in builders and
// marked caches — is what makes the lock-free read path of DESIGN.md §6
// auditable at all.
var ViewMutate = &Analyzer{
	Name:       "viewmutate",
	Doc:        "no writes to memory reachable from a //qcpa:published view outside its builder or a //qcpa:lazycache link",
	RunProgram: runViewMutate,
}

func runViewMutate(pass *ProgramPass) error {
	prog := pass.Prog
	// Fast path: nothing opted in.
	hasPublished := false
	for _, dirs := range prog.typeDirs {
		for _, d := range dirs {
			if d.name == dirPublished {
				hasPublished = true
			}
		}
	}
	if !hasPublished {
		return nil
	}
	for _, n := range prog.Funcs {
		checkNodeMutations(pass, n)
	}
	return nil
}

func checkNodeMutations(pass *ProgramPass, n *FuncNode) {
	body := n.Body()
	if body == nil {
		return
	}
	builders := builderLocals(n)
	inspectOwn(body, func(node ast.Node) {
		switch s := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkWrite(pass, n, builders, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, n, builders, s.X)
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "delete" && len(s.Args) == 2 {
				if _, isBuiltin := n.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					checkOwnerPath(pass, n, builders, s.Args[0], s.Pos())
				}
			}
		}
	})
}

// checkWrite analyzes one write target. The owner path — the chain of
// expressions whose referents the write mutates — excludes the written
// field itself: for x.f the owner is x, for m[k] it is m (the map or
// slice is what mutates), for *p it is p's referent.
func checkWrite(pass *ProgramPass, n *FuncNode, builders map[types.Object]bool, lhs ast.Expr) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		checkOwnerPath(pass, n, builders, lhs.X, lhs.Pos())
	case *ast.IndexExpr:
		checkOwnerPath(pass, n, builders, lhs.X, lhs.Pos())
	case *ast.StarExpr:
		checkOwnerPath(pass, n, builders, lhs.X, lhs.Pos())
	}
	// Plain identifiers rebind a variable; nothing published mutates.
}

// checkOwnerPath walks the access path under owner, reporting when a
// published-typed link is crossed without a builder or lazycache
// escape.
func checkOwnerPath(pass *ProgramPass, n *FuncNode, builders map[types.Object]bool, owner ast.Expr, at token.Pos) {
	prog := pass.Prog
	info := n.Pkg.Info

	var published *types.TypeName
	lazy := false
	var root *ast.Ident

	for e := ast.Unparen(owner); e != nil; {
		if tn := namedOf(info.TypeOf(e)); tn != nil {
			if _, ok := prog.TypeDirective(tn, dirLazyCache); ok {
				lazy = true
			}
			if _, ok := prog.TypeDirective(tn, dirPublished); ok && published == nil {
				published = tn
			}
		}
		switch ee := e.(type) {
		case *ast.SelectorExpr:
			e = ast.Unparen(ee.X)
		case *ast.IndexExpr:
			e = ast.Unparen(ee.X)
		case *ast.StarExpr:
			e = ast.Unparen(ee.X)
		case *ast.Ident:
			root = ee
			e = nil
		default:
			e = nil
		}
	}
	if published == nil || lazy {
		return
	}
	if root != nil {
		if obj := info.ObjectOf(root); obj != nil && builders[obj] {
			return
		}
	}
	pos := at
	if !pos.IsValid() {
		pos = owner.Pos()
	}
	pass.Reportf(pos, "%s writes through %s, which is //qcpa:published (immutable once visible): mutate only in the builder before publishing, or mark the cache link //qcpa:lazycache", n.Name(), published.Name())
}

// namedOf strips pointers and returns the named type's object, or nil.
func namedOf(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// builderLocals collects the local variables this node constructs from
// a composite literal (&T{} or T{}) or new(T): values still under
// construction, exempt from the published contract until they escape.
func builderLocals(n *FuncNode) map[types.Object]bool {
	body := n.Body()
	if body == nil {
		return nil
	}
	info := n.Pkg.Info
	out := make(map[types.Object]bool)
	record := func(name *ast.Ident, value ast.Expr) {
		if name == nil || value == nil {
			return
		}
		switch v := ast.Unparen(value).(type) {
		case *ast.CompositeLit:
		case *ast.UnaryExpr:
			if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); !ok {
				return
			}
		case *ast.CallExpr:
			id, ok := v.Fun.(*ast.Ident)
			if !ok || id.Name != "new" {
				return
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return
			}
		default:
			return
		}
		if obj := info.ObjectOf(name); obj != nil {
			out[obj] = true
		}
	}
	inspectOwnLits(body, func(node ast.Node) {
		switch s := node.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return
			}
			for i, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					record(id, s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Values) == 0 {
				// var t T: the zero value is fresh, not published.
				for _, name := range s.Names {
					if obj := info.ObjectOf(name); obj != nil {
						out[obj] = true
					}
				}
				return
			}
			if len(s.Names) != len(s.Values) {
				return
			}
			for i, name := range s.Names {
				record(name, s.Values[i])
			}
		}
	})
	return out
}
