// Package feedback is a maporder scope fixture: the MNS tables live under
// this import-path base, so a raw map range is flagged here.
package feedback

func keys(m map[string]int) []string {
	var out []string
	for k := range m { // want "range over map m in deterministic package"
		out = append(out, k)
	}
	return out
}
