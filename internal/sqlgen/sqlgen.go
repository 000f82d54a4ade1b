// Package sqlgen renders query flocks as SQL, the direction §1.3 and §2.1
// sketch ("each of the advantages mentioned above can be translated to SQL
// terms"). The output targets a generic SQL dialect: a flock becomes a
// grouped HAVING query over a derived extended-answer table (Fig. 1's
// shape, generalized to unions, negation and arithmetic), with its views
// as a leading WITH chain.
//
// The translation is illustrative: it is rendered and tested as text, and
// executed semantics live in internal/eval.
package sqlgen

import (
	"fmt"
	"strings"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// FlockSQL renders the flock as a single SQL statement. Intermediate
// predicates (views, §2.2) become a leading WITH chain.
func FlockSQL(f *core.Flock) (string, error) {
	viewCols := make(map[string][]string, len(f.Views))
	ctes, err := viewCTEs(f, viewCols)
	if err != nil {
		return "", err
	}
	inner, err := extendedSelect(f.Query, f.Params, viewCols)
	if err != nil {
		return "", err
	}
	body := groupedSelect(f, inner, f.Params)
	if len(ctes) == 0 {
		return body, nil
	}
	return "WITH " + strings.Join(ctes, ",\n") + "\n" + body, nil
}

// viewCTEs renders each view predicate as a CTE and records its column
// names. Union views (several rules per predicate) become UNION bodies.
func viewCTEs(f *core.Flock, viewCols map[string][]string) ([]string, error) {
	var order []string
	bodies := make(map[string][]string)
	for _, v := range f.Views {
		cols, seen := viewCols[v.Head.Pred]
		if !seen {
			cols = make([]string, len(v.Head.Args))
			for i := range v.Head.Args {
				cols[i] = fmt.Sprintf("c%d", i+1)
			}
			viewCols[v.Head.Pred] = cols
			order = append(order, v.Head.Pred)
		}
		// A view body is the rule's head projection (no parameters).
		sel, err := ruleSelect(v, nil, viewCols)
		if err != nil {
			return nil, fmt.Errorf("sqlgen: view %s: %w", v.Head, err)
		}
		bodies[v.Head.Pred] = append(bodies[v.Head.Pred], sel)
	}
	var ctes []string
	for _, pred := range order {
		cols := viewCols[pred]
		renamed := make([]string, len(cols))
		for i, c := range cols {
			renamed[i] = fmt.Sprintf("h%d AS %s", i+1, c)
		}
		body := strings.Join(bodies[pred], "\nUNION\n")
		ctes = append(ctes, fmt.Sprintf("%s AS (\n  SELECT %s FROM (\n%s\n  ) v\n)",
			pred, strings.Join(renamed, ", "), indent(body, "  ")))
	}
	return ctes, nil
}

// extendedSelect renders the union's extended answer (params then head
// columns) as a SELECT or UNION of SELECTs. viewCols maps view predicate
// names to their CTE column names.
func extendedSelect(u datalog.Union, params []datalog.Param, viewCols map[string][]string) (string, error) {
	var parts []string
	for _, r := range u {
		s, err := ruleSelect(r, params, viewCols)
		if err != nil {
			return "", err
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, "\nUNION\n"), nil
}

// ruleSelect renders one rule's extended answer as SELECT DISTINCT.
func ruleSelect(r *datalog.Rule, params []datalog.Param, viewCols map[string][]string) (string, error) {
	exprs := make(map[string]string) // term column -> SQL expression
	var where []string

	colName := func(pred string, i int) string {
		if cols, ok := viewCols[pred]; ok && i < len(cols) {
			return cols[i]
		}
		return fmt.Sprintf("c%d", i+1)
	}

	// Positive atoms become FROM entries with aliases.
	var from []string
	for ai, a := range r.PositiveAtoms() {
		alias := fmt.Sprintf("t%d", ai)
		from = append(from, fmt.Sprintf("%s %s", a.Pred, alias))
		for i, t := range a.Args {
			ref := fmt.Sprintf("%s.%s", alias, colName(a.Pred, i))
			switch x := t.(type) {
			case datalog.Const:
				where = append(where, fmt.Sprintf("%s = %s", ref, sqlLiteral(x)))
			default:
				col, _ := termColumn(t)
				if prev, bound := exprs[col]; bound {
					where = append(where, fmt.Sprintf("%s = %s", prev, ref))
				} else {
					exprs[col] = ref
				}
			}
		}
	}
	if len(from) == 0 {
		return "", fmt.Errorf("sqlgen: rule %s has no positive subgoals", r.Head)
	}

	termExpr := func(t datalog.Term) (string, error) {
		if c, isConst := t.(datalog.Const); isConst {
			return sqlLiteral(c), nil
		}
		col, _ := termColumn(t)
		e, ok := exprs[col]
		if !ok {
			return "", fmt.Errorf("sqlgen: term %s is not bound by a positive subgoal", t)
		}
		return e, nil
	}

	// Comparisons become WHERE predicates.
	for _, c := range r.Comparisons() {
		l, err := termExpr(c.Left)
		if err != nil {
			return "", err
		}
		rgt, err := termExpr(c.Right)
		if err != nil {
			return "", err
		}
		op := c.Op.String()
		if c.Op == datalog.Ne {
			op = "<>"
		}
		where = append(where, fmt.Sprintf("%s %s %s", l, op, rgt))
	}

	// Negated atoms become NOT EXISTS subqueries.
	for _, a := range r.NegatedAtoms() {
		var conds []string
		for i, t := range a.Args {
			e, err := termExpr(t)
			if err != nil {
				return "", err
			}
			conds = append(conds, fmt.Sprintf("n.%s = %s", colName(a.Pred, i), e))
		}
		where = append(where, fmt.Sprintf("NOT EXISTS (SELECT 1 FROM %s n WHERE %s)",
			a.Pred, strings.Join(conds, " AND ")))
	}

	// SELECT list: params as p1..pk, head args as h1..hm.
	var sel []string
	for i, p := range params {
		e, err := termExpr(p)
		if err != nil {
			return "", err
		}
		sel = append(sel, fmt.Sprintf("%s AS p%d", e, i+1))
	}
	for i, t := range r.Head.Args {
		e, err := termExpr(t)
		if err != nil {
			return "", err
		}
		sel = append(sel, fmt.Sprintf("%s AS h%d", e, i+1))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "SELECT DISTINCT %s\nFROM %s", strings.Join(sel, ", "), strings.Join(from, ", "))
	if len(where) > 0 {
		fmt.Fprintf(&b, "\nWHERE %s", strings.Join(where, "\n  AND "))
	}
	return b.String(), nil
}

// groupedSelect wraps the extended answer in the GROUP BY / HAVING of the
// flock's filter, projecting the flock's parameters.
func groupedSelect(f *core.Flock, inner string, params []datalog.Param) string {
	var cols []string
	for i := range params {
		cols = append(cols, fmt.Sprintf("p%d", i+1))
	}
	group := strings.Join(cols, ", ")
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s\nFROM (\n%s\n) answer\nGROUP BY %s\nHAVING %s",
		group, indent(inner, "  "), group, havingClause(f))
	return b.String()
}

// havingClause renders the filter condition over the extended answer's
// head columns.
func havingClause(f *core.Flock) string {
	spec := f.Filter.Spec()
	var target string
	switch {
	case spec.Agg == datalog.AggCount && f.Filter.HeadPos() < 0 && len(f.Query[0].Head.Args) == 1:
		target = "COUNT(DISTINCT h1)"
	case spec.Agg == datalog.AggCount && f.Filter.HeadPos() < 0:
		// Whole-tuple distinct count; rows are already DISTINCT.
		target = "COUNT(*)"
	default:
		pos := f.Filter.HeadPos()
		if pos < 0 {
			pos = 0
		}
		col := fmt.Sprintf("h%d", pos+1)
		if spec.Agg == datalog.AggCount {
			target = fmt.Sprintf("COUNT(DISTINCT %s)", col)
		} else {
			target = fmt.Sprintf("%s(%s)", spec.Agg, col)
		}
	}
	return fmt.Sprintf("%s %s %s", target, spec.Op, spec.Threshold.Literal())
}

func sqlLiteral(c datalog.Const) string {
	v := c.Val
	if v.Kind() == storage.KindString {
		return "'" + strings.ReplaceAll(v.String(), "'", "''") + "'"
	}
	return v.String()
}

func termColumn(t datalog.Term) (string, bool) {
	switch x := t.(type) {
	case datalog.Var:
		return string(x), true
	case datalog.Param:
		return "$" + string(x), true
	default:
		return "", false
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
