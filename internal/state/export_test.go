package state

import "fmt"

// String names the state and its size in test failure messages.
func (s *State) String() string {
	return fmt.Sprintf("%s[%d]", s.name, s.Len())
}
