#!/usr/bin/env python3
"""Unit tests for count_code_lines.py (run by CI as a plain
`python3 scripts/test_count_code_lines.py`)."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import count_code_lines as ccl  # noqa: E402


class CountLinesTest(unittest.TestCase):
    def test_skips_blank_lines_and_every_comment_style(self):
        src = "//! crate doc\n\n/// item doc\nfn f() {\n    // inline\n    g();\n}\n"
        self.assertEqual(ccl.count_lines(src), 3)

    def test_skips_a_cfg_test_module_up_to_its_closing_brace(self):
        src = (
            "fn f() {}\n"
            "\n"
            "#[cfg(test)]\n"
            "mod tests {\n"
            "    #[test]\n"
            "    fn t() {\n"
            "        f();\n"
            "    }\n"
            "}\n"
            "fn after() {}\n"
        )
        self.assertEqual(ccl.count_lines(src), 2)

    def test_nested_cfg_test_module_ends_at_its_own_indentation(self):
        src = (
            "mod outer {\n"
            "    #[cfg(test)]\n"
            "    mod tests {\n"
            "        fn t() {\n"
            "        }\n"
            "    }\n"
            "    fn kept() {}\n"
            "}\n"
        )
        self.assertEqual(ccl.count_lines(src), 3)

    def test_cfg_test_on_a_non_module_item_is_counted(self):
        src = "#[cfg(test)]\nfn helper() {}\n"
        self.assertEqual(ccl.count_lines(src), 2)

    def test_tree_counts_only_src_and_examples(self):
        with tempfile.TemporaryDirectory() as root:
            files = {
                "crates/a/src/lib.rs": "fn a() {}\n",
                "crates/a/src/sub/m.rs": "fn m() {}\nfn n() {}\n",
                "crates/a/tests/t.rs": "fn t() {}\n",
                "crates/a/benches/b.rs": "fn b() {}\n",
                "src/lib.rs": "fn root() {}\n",
                "examples/demo.rs": "fn main() {}\n",
                "tests/end_to_end.rs": "fn e() {}\n",
            }
            for rel, text in files.items():
                path = os.path.join(root, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text)
            total, per_file = ccl.count_tree(root)
            self.assertEqual(total, 5)
            self.assertEqual(
                sorted(per_file),
                [
                    os.path.join("crates", "a", "src", "lib.rs"),
                    os.path.join("crates", "a", "src", "sub", "m.rs"),
                    os.path.join("examples", "demo.rs"),
                    os.path.join("src", "lib.rs"),
                ],
            )


if __name__ == "__main__":
    unittest.main()
