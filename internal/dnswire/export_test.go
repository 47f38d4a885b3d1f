package dnswire

// DecodePrefix parses one DNS message from the front of msg and returns it
// along with the number of bytes consumed, permitting trailing data.
func DecodePrefix(msg []byte) (*Message, int, error) {
	m := new(Message)
	off, err := decodeInto(msg, m)
	if err != nil {
		return nil, 0, err
	}
	return m, off, nil
}
