"""Tests for the next-day prefetch worker pool."""
