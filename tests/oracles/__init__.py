"""Reference implementations that only the tests use."""
