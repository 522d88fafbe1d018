package model

import (
	"errors"
	"fmt"
)

// ErrIntegrity is wrapped by all referential-integrity violations.
var ErrIntegrity = errors.New("model: integrity violation")

// Validate checks the referential integrity of a dataset: unique ids per
// kind, comments referencing existing submissions and root posts, likes and
// friendships referencing existing users/comments, no self-friendships,
// comment root pointers consistent with the parent chain, and removals of
// existing edges only. Change sets are validated in replay order against
// the growing state (see State for the rules).
func Validate(d *Dataset) error {
	st, err := NewState(d.Snapshot)
	if err != nil {
		return err
	}
	for i := range d.ChangeSets {
		if _, err := st.Apply(d.ChangeSets[i].Changes); err != nil {
			return fmt.Errorf("change set %d: %w", i, err)
		}
	}
	return nil
}
