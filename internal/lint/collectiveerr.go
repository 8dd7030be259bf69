package lint

// collectiveerr enforces the fault-tolerance contract of internal/mpi: every
// collective returns an error precisely so that a dead rank surfaces as
// *mpi.RankFailedError at the call site, and the shrink-and-continue
// recovery loop can only engage if that error propagates. A discarded
// collective error therefore doesn't just lose a diagnostic — it silently
// disables recovery and turns the next rendezvous into a guaranteed abort.
// Unlike droppederr, blank assignment (`_ = ...`, `x, _ := ...`) is NOT an
// accepted discard for these calls: there is no legitimate reason to ignore
// a rank failure outside the mpi package itself.

import (
	"go/ast"
	"go/types"
)

// CollectiveErr flags statements that discard the error result of an
// internal/mpi Comm or World method, including blank-identifier discards.
var CollectiveErr = &Analyzer{
	Name: "collectiveerr",
	Doc: "flag discarded error results of mpi.Comm/mpi.World methods (even " +
		"via _); rank failures must propagate for shrink-and-continue recovery",
	Run: runCollectiveErr,
}

func runCollectiveErr(pass *Pass) error {
	// The mpi package itself composes collectives out of other collectives
	// and owns the failure state; its internals are exempt.
	if pass.Pkg.Name() == "mpi" {
		return nil
	}
	report := func(call *ast.CallExpr, how string) {
		f := calleeFunc(pass, call)
		pass.Reportf(call.Pos(),
			"mpi collective %s %s its error result; a dead rank surfaces here, "+
				"and recovery needs the error propagated", f.Name(), how)
	}
	checkStmt := func(call *ast.CallExpr) {
		if collectiveErrIndex(pass, call) >= 0 {
			report(call, "discards")
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					checkStmt(call)
				}
			case *ast.DeferStmt:
				checkStmt(s.Call)
			case *ast.GoStmt:
				checkStmt(s.Call)
			case *ast.AssignStmt:
				// x, _ := c.AllReduceSum(...) — the error position must not
				// be the blank identifier.
				if len(s.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				idx := collectiveErrIndex(pass, call)
				if idx < 0 || idx >= len(s.Lhs) {
					return true
				}
				if id, ok := s.Lhs[idx].(*ast.Ident); ok && id.Name == "_" {
					report(call, "blank-discards")
				}
			}
			return true
		})
	}
	return nil
}

// collectiveErrIndex returns the result-tuple index of the error returned by
// a method on internal/mpi's Comm or World, or -1 if the call is not such a
// method (or returns no error).
func collectiveErrIndex(pass *Pass, call *ast.CallExpr) int {
	f := calleeFunc(pass, call)
	if !isMethodOn(f, "internal/mpi", "Comm") && !isMethodOn(f, "internal/mpi", "World") {
		return -1
	}
	return errResultIndex(f)
}

// isCollective reports whether f is an mpi collective: an exported method on
// internal/mpi's Comm with an error result. Every such method ends in a
// full-world rendezvous (its error is how a dead rank surfaces), so the
// signature defines the set and no list has to track the mpi package.
func isCollective(f *types.Func) bool {
	return f != nil && f.Exported() && isMethodOn(f, "internal/mpi", "Comm") && errResultIndex(f) >= 0
}

// errResultIndex returns the result-tuple index of f's error result, or -1.
func errResultIndex(f *types.Func) int {
	res := f.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return i
		}
	}
	return -1
}
