from hypothesis import settings

# No example database: with one, a failing draw saved under .hypothesis/ is
# replayed by every later run in the checkout, so the suite's result would
# depend on the runs before it rather than on the code. print_blob=True makes
# a failure print the @reproduce_failure line that replays its draw.
#
# When CI is set (GitHub Actions sets CI=true), Hypothesis 6.155 loads its
# built-in "ci" profile first, and this profile inherits derandomize=True and
# print_blob=True from it: CI runs a fixed set of draws, while a local run
# draws at random and, without print_blob here, would print no blob.
settings.register_profile("no_database", database=None, print_blob=True)
settings.load_profile("no_database")
