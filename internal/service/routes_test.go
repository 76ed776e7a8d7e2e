package service

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"asyncmediator/api"
)

// routeReaches sends one request for method and path and reports whether
// it reached a handler: the mux itself answers a path or method it has
// no pattern for with a plain-text 404 or 405, every handler answers in
// JSON (or an event stream, or the metrics text with a 200).
func routeReaches(t *testing.T, base, method, path string) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel() // ends the event stream once its headers are in
	req, err := http.NewRequestWithContext(ctx, method, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	resp.Body.Close()
	plain := strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain")
	return !(plain && (resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed))
}

// mountedPatterns reads the package's non-test sources and returns every
// pattern passed to a HandleFunc or Handle call. A pattern that is not a
// constant concatenation of string literals and api.Prefix fails the
// test: the route table check could not see it.
func mountedPatterns(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var eval func(ast.Expr) (string, bool)
	eval = func(e ast.Expr) (string, bool) {
		switch e := e.(type) {
		case *ast.BasicLit:
			s, err := strconv.Unquote(e.Value)
			return s, err == nil
		case *ast.BinaryExpr:
			x, okx := eval(e.X)
			y, oky := eval(e.Y)
			return x + y, okx && oky && e.Op == token.ADD
		case *ast.SelectorExpr:
			if pkg, ok := e.X.(*ast.Ident); ok && pkg.Name == "api" && e.Sel.Name == "Prefix" {
				return api.Prefix, true
			}
		}
		return "", false
	}
	fset := token.NewFileSet()
	var out []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "HandleFunc" && sel.Sel.Name != "Handle") {
				return true
			}
			p, ok := eval(call.Args[0])
			if !ok {
				t.Fatalf("%s: a route mounted with a non-constant pattern", fset.Position(call.Pos()))
			}
			out = append(out, p)
			return true
		})
	}
	return out
}

// TestRoutesTableMatchesMux checks api.Routes, the table the README's
// API reference is generated from, against what Handler mounts: every
// entry reaches a handler, and the only /v1 route mounted but missing
// from the table is the fault-injection hook, mounted only with
// EnableChaos.
func TestRoutesTableMatchesMux(t *testing.T) {
	_, ts := httpFarm(t, Config{Workers: 1})
	_, chaos := httpFarm(t, Config{Workers: 1, EnableChaos: true})

	var table []string
	for _, r := range api.Routes() {
		path := r.Path
		if !r.Unversioned {
			path = api.Prefix + path
		}
		table = append(table, r.Method+" "+path)
		if !routeReaches(t, ts.URL, r.Method, strings.ReplaceAll(path, "{id}", "s-000001")) {
			t.Errorf("%s %s is in api.Routes but reaches no handler", r.Method, path)
		}
	}

	var extra []string
	for _, p := range mountedPatterns(t) {
		if strings.Contains(p, " "+api.Prefix+"/") && !slices.Contains(table, p) {
			extra = append(extra, p)
		}
	}
	const drop = "POST " + api.Prefix + "/cluster/drop"
	if !slices.Equal(extra, []string{drop}) {
		t.Fatalf("/v1 routes mounted but missing from api.Routes: %q, want only %q", extra, drop)
	}
	if routeReaches(t, ts.URL, "POST", api.Prefix+"/cluster/drop") {
		t.Errorf("%s is mounted without EnableChaos", drop)
	}
	if !routeReaches(t, chaos.URL, "POST", api.Prefix+"/cluster/drop") {
		t.Errorf("%s is not mounted with EnableChaos", drop)
	}
}
