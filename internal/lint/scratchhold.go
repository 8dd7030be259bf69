package lint

// scratchhold enforces the caller-owned-scratch rule from DESIGN.md §10:
// a function that receives a *model.Scratch, a *grad.Encoded, or a slice
// parameter tagged by a `//kgelint:scratch <params...>` doc directive
// borrows the buffer for the duration of the call only. Retaining it past
// return — storing it (or anything reachable from it) into package-level
// state, a struct field, a map or a pointee, sending it over a channel, or
// handing it to a spawned goroutine — lets two batches race on one scratch
// buffer, which is precisely the aliasing bug per-worker scratch discipline
// exists to prevent.
//
// The analysis computes the intra-procedural may-alias closure of the
// scratch parameters (plain copies, field/element projections and reslices
// of reference type all alias their root) and then flags every statement
// that moves an alias somewhere that outlives the call. Returning a scratch
// parameter is legal: the caller already owns it.

import (
	"go/ast"
	"go/types"
	"strings"
)

// ScratchHold reports borrowed scratch parameters retained past return.
var ScratchHold = &Analyzer{
	Name: "scratchhold",
	Doc: "functions receiving *model.Scratch, *grad.Encoded or //kgelint:scratch-tagged " +
		"slice parameters borrow them for the call only; report stores to package/struct " +
		"state, channel sends and goroutine capture that retain them past return",
	Run: runScratchHold,
}

func runScratchHold(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			roots := scratchParams(pass, fd)
			if len(roots) == 0 {
				continue
			}
			w := &shFunc{pass: pass, alias: roots}
			w.closeAliases(fd.Body)
			w.check(fd.Body)
		}
	}
	return nil
}

// scratchParams returns the borrowed parameters of fd: map from parameter
// object to its name (used in diagnostics).
func scratchParams(pass *Pass, fd *ast.FuncDecl) map[types.Object]string {
	tagged := map[string]bool{}
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "kgelint:scratch")
			if !ok {
				continue
			}
			for _, name := range strings.Fields(rest) {
				tagged[name] = true
			}
		}
	}
	roots := map[types.Object]string{}
	if fd.Type.Params == nil {
		return roots
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if isScratchType(obj.Type()) || (tagged[name.Name] && isSliceType(obj.Type())) {
				roots[obj] = name.Name
			}
		}
	}
	return roots
}

// isScratchType reports *model.Scratch or *grad.Encoded.
func isScratchType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	switch obj.Name() {
	case "Scratch":
		return strings.HasSuffix(path, "internal/model")
	case "Encoded":
		return strings.HasSuffix(path, "internal/grad")
	}
	return false
}

func isSliceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

type shFunc struct {
	pass *Pass
	// alias maps each object that may alias a borrowed parameter to the
	// root parameter's name.
	alias map[types.Object]string
}

// refLike reports whether a value of type t can keep scratch memory alive:
// pointers, slices, maps, chans, interfaces and closures can; scalars and
// plain struct copies of scalars cannot.
func refLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	}
	return false
}

// aliasRoot resolves expr to the borrowed parameter it may alias, if any.
func (w *shFunc) aliasRoot(expr ast.Expr) (string, bool) {
	e := ast.Unparen(expr)
	switch e := e.(type) {
	case *ast.Ident:
		if o := w.pass.TypesInfo.Uses[e]; o != nil {
			if root, ok := w.alias[o]; ok {
				return root, true
			}
		}
		return "", false
	case *ast.SelectorExpr:
		// A projection (s.Grad) only carries the borrow if the projected
		// value is itself reference-like.
		if !refLike(w.pass.TypesInfo.TypeOf(e)) {
			return "", false
		}
		return w.aliasRoot(e.X)
	case *ast.IndexExpr:
		if !refLike(w.pass.TypesInfo.TypeOf(e)) {
			return "", false
		}
		return w.aliasRoot(e.X)
	case *ast.SliceExpr:
		return w.aliasRoot(e.X)
	case *ast.StarExpr:
		if !refLike(w.pass.TypesInfo.TypeOf(e)) {
			return "", false
		}
		return w.aliasRoot(e.X)
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return w.aliasRoot(e.X)
		}
	}
	return "", false
}

// closeAliases runs the alias closure to a fixpoint: every local assigned
// from a borrowed alias becomes a borrowed alias.
func (w *shFunc) closeAliases(body *ast.BlockStmt) {
	for {
		changed := false
		bind := func(id *ast.Ident, rhs ast.Expr) {
			if id == nil || id.Name == "_" || rhs == nil {
				return
			}
			root, ok := w.aliasRoot(rhs)
			if !ok {
				return
			}
			obj := w.pass.TypesInfo.Defs[id]
			if obj == nil {
				if o, okUse := w.pass.TypesInfo.Uses[id]; okUse {
					obj = o
				}
			}
			if obj == nil {
				return
			}
			// Package-level variables are retention targets, not borrows:
			// keeping them out of the alias set lets checkStore flag the
			// store that put the scratch there.
			if obj.Parent() == w.pass.Pkg.Scope() {
				return
			}
			if _, seen := w.alias[obj]; !seen {
				w.alias[obj] = root
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							bind(id, n.Rhs[i])
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						bind(name, n.Values[i])
					}
				}
			case *ast.RangeStmt:
				// range over a borrowed container: the value variable
				// borrows too (if reference-like).
				if _, ok := w.aliasRoot(n.X); ok {
					if id, okV := n.Value.(*ast.Ident); okV {
						bind(id, n.X)
					}
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// check walks the body and reports every retention of a borrowed alias.
func (w *shFunc) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				root, ok := w.aliasRoot(n.Rhs[i])
				if !ok {
					continue
				}
				w.checkStore(n, lhs, root)
			}
		case *ast.SendStmt:
			if root, ok := w.aliasRoot(n.Value); ok {
				w.pass.Reportf(n.Pos(), "borrowed scratch %q sent over a channel; the receiver would retain it past this call's return", root)
			}
		case *ast.GoStmt:
			w.checkGo(n)
			return false
		}
		return true
	})
}

// checkStore reports a store of a borrowed alias into state that outlives
// the call: a package-level variable, or any field/element/pointee store.
// Stores INTO the borrowed object itself (e.Scales = ..., out[i] = ...) are
// exempt: mutating caller-owned scratch in place is exactly what a scratch
// callee is for, and the result goes back to the owner at return.
func (w *shFunc) checkStore(at ast.Node, lhs ast.Expr, root string) {
	if _, ok := w.aliasRootAnyType(lhs); ok {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := w.pass.TypesInfo.Uses[l]
		if obj == nil {
			obj = w.pass.TypesInfo.Defs[l]
		}
		// Local rebinding is fine; a package-level variable outlives the call.
		if obj != nil && obj.Parent() == w.pass.Pkg.Scope() {
			w.pass.Reportf(at.Pos(), "borrowed scratch %q stored in package-level variable %s; caller-owned scratch must not be retained past return", root, l.Name)
		}
	case *ast.SelectorExpr:
		w.pass.Reportf(at.Pos(), "borrowed scratch %q stored in field %s; caller-owned scratch must not be retained past return", root, types.ExprString(l))
	case *ast.IndexExpr:
		w.pass.Reportf(at.Pos(), "borrowed scratch %q stored in element %s; caller-owned scratch must not be retained past return", root, types.ExprString(l))
	case *ast.StarExpr:
		w.pass.Reportf(at.Pos(), "borrowed scratch %q stored through pointer %s; caller-owned scratch must not be retained past return", root, types.ExprString(l))
	}
}

// aliasRootAnyType resolves the base chain of expr to a borrowed alias,
// ignoring the projected type — used for store targets, where writing a
// scalar field of the borrow is as legal as writing a slice field.
func (w *shFunc) aliasRootAnyType(expr ast.Expr) (string, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if o := w.pass.TypesInfo.Uses[e]; o != nil {
			if root, ok := w.alias[o]; ok {
				return root, true
			}
		}
	case *ast.SelectorExpr:
		return w.aliasRootAnyType(e.X)
	case *ast.IndexExpr:
		return w.aliasRootAnyType(e.X)
	case *ast.SliceExpr:
		return w.aliasRootAnyType(e.X)
	case *ast.StarExpr:
		return w.aliasRootAnyType(e.X)
	}
	return "", false
}

// checkGo reports borrowed aliases escaping into a spawned goroutine, as an
// argument or as a closure capture.
func (w *shFunc) checkGo(n *ast.GoStmt) {
	for _, arg := range n.Call.Args {
		if root, ok := w.aliasRoot(arg); ok {
			w.pass.Reportf(arg.Pos(), "borrowed scratch %q handed to a goroutine; it may outlive this call's return", root)
		}
	}
	if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			if o := w.pass.TypesInfo.Uses[id]; o != nil {
				if root, ok := w.alias[o]; ok {
					w.pass.Reportf(id.Pos(), "borrowed scratch %q captured by a goroutine closure; it may outlive this call's return", root)
				}
			}
			return true
		})
	}
}
