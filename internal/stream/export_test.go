package stream

// ByName returns the schema with the given name, if registered.
func (c *Catalog) ByName(name string) (*Schema, bool) {
	s, ok := c.byName[name]
	return s, ok
}
