package bench

import (
	"fmt"
	"strings"
)

// Table is a figure's data in row/column form: one row per X value (thread
// count, key range, parameter value), one column per series (variant).
type Table struct {
	Title   string
	XLabel  string
	Columns []string
	XValues []string
	Cells   [][]float64 // Cells[row][col]
	// Marked lists the cells flagged by Mark, as {row, col}; Render
	// suffixes each with "*" and prints Note below the table when any is.
	Marked [][2]int `json:",omitempty"`
	Note   string   `json:",omitempty"`
}

// Mark flags the cell at row, col.
func (t *Table) Mark(row, col int) { t.Marked = append(t.Marked, [2]int{row, col}) }

// marked reports whether the cell at row, col is flagged.
func (t *Table) marked(row, col int) bool {
	for _, m := range t.Marked {
		if m == [2]int{row, col} {
			return true
		}
	}
	return false
}

// NewTable allocates a table with the given axes.
func NewTable(title, xlabel string, columns []string) *Table {
	return &Table{Title: title, XLabel: xlabel, Columns: columns}
}

// AddRow appends one X value's measurements (must match len(Columns)).
func (t *Table) AddRow(x string, values []float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("bench: row with %d values for %d columns", len(values), len(t.Columns)))
	}
	t.XValues = append(t.XValues, x)
	row := make([]float64, len(values))
	copy(row, values)
	t.Cells = append(t.Cells, row)
}

// Render formats the table as aligned text, throughputs in Mops/s.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	w := 12
	for _, c := range t.Columns {
		if len(c)+2 > w {
			w = len(c) + 2
		}
	}
	for _, x := range t.XValues {
		if len(x)+2 > w {
			w = len(x) + 2
		}
	}
	fmt.Fprintf(&b, "%-*s", w, t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", w, c)
	}
	b.WriteByte('\n')
	for i, x := range t.XValues {
		fmt.Fprintf(&b, "%-*s", w, x)
		for j, v := range t.Cells[i] {
			cell := formatOps(v)
			if t.marked(i, j) {
				cell += "*"
			}
			fmt.Fprintf(&b, "%*s", w, cell)
		}
		b.WriteByte('\n')
	}
	if len(t.Marked) > 0 && t.Note != "" {
		fmt.Fprintf(&b, "# %s\n", t.Note)
	}
	return b.String()
}

// formatOps renders a throughput in human units.
func formatOps(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// CSV renders the table as comma-separated values with raw numbers.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", csvEscape(t.XLabel))
	for _, c := range t.Columns {
		fmt.Fprintf(&b, ",%s", csvEscape(c))
	}
	b.WriteByte('\n')
	for i, x := range t.XValues {
		fmt.Fprintf(&b, "%s", csvEscape(x))
		for _, v := range t.Cells[i] {
			fmt.Fprintf(&b, ",%.1f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Best returns the column with the highest value in the given row (for
// quick who-wins assertions in tests and summaries).
func (t *Table) Best(row int) string {
	best, bestV := "", -1.0
	for c, v := range t.Cells[row] {
		if v > bestV {
			best, bestV = t.Columns[c], v
		}
	}
	return best
}

// Col returns the column index for a series name, or -1.
func (t *Table) Col(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}
