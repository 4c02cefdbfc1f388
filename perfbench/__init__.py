"""Outside-in benchmark of the tropcrit CLI; see NOTES.md."""
