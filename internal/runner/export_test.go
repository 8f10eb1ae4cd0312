package runner

// KeyAtModel is the key a simulator at model version v gives j: Key with
// another version stamped in.
func KeyAtModel(j Job, v string) string {
	k, _ := j.key(v)
	return k
}
