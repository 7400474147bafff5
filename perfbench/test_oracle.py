"""Tests of the benchmark's oracle and scorer on hand-built tables.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import oracle

# The paper's running example: customer tuples with country code, area
# code, phone, street, city and zip (Fan, Geerts, Jia, VLDB 2008).
CUST = """cc,ac,phn,street,city,zip
01,908,1111111,Tree Ave.,nyc,07974
01,908,1111111,Tree Ave.,nyc,07974
01,212,2222222,Elm Str.,nyc,01202
01,908,2222222,Elm Str.,nyc,01202
44,131,3333333,High St.,edi,EH4 1DT
44,131,4444444,Port PI,edi,EH4 1DT
"""


def table(text):
    return oracle.read_csv(text)


class ViolationCounts(unittest.TestCase):
    def test_paper_cust_example(self):
        header, rows = table(CUST)
        suite = oracle.parse_suite(
            "customer([cc='44', zip] -> [street])\n"
            "customer([cc='01', ac='908', phn] -> [street, city='mh', zip])\n"
            "customer([cc, ac] -> [city])\n")
        # The multi-attribute RHS stands for three CFDs.
        self.assertEqual(len(suite), 5)
        # t5, t6: same UK zip, different streets -> one group violation.
        # t1, t2, t4: 01/908 customers with city nyc, not mh -> three
        # tuple violations of the constant row; their (phn) groups agree
        # on street and zip.
        self.assertEqual(oracle.violations(header, rows, suite), [1, 0, 3, 0, 0])

    def test_us_zip_is_not_constrained_by_the_uk_rule(self):
        header, rows = table("cc,zip,street\n44,EH8,A St\n44,EH8,B St\n01,EH8,C St\n")
        uk = oracle.parse_suite("customer([cc='44', zip] -> [street])")
        self.assertEqual(oracle.violations(header, rows, uk), [1])

    def test_group_with_three_values_is_one_violation(self):
        header, rows = table("a,b\n1,x\n1,y\n1,z\n2,x\n2,x\n")
        fd = oracle.parse_suite("r([a] -> [b])")
        self.assertEqual(oracle.violations(header, rows, fd), [1])

    def test_quoted_constants(self):
        cfd = oracle.parse_suite("r([name='o''neil, jr'] -> [city='edi'])")[0]
        self.assertEqual(cfd.lhs, [("name", "o'neil, jr")])
        header, rows = table('name,city\n"o\'neil, jr",gla\nsmith,gla\n')
        self.assertEqual(oracle.violations(header, rows, [cfd]), [1])

    def test_unknown_attribute_is_an_error(self):
        header, rows = table("a,b\n1,x\n")
        with self.assertRaises(ValueError):
            oracle.violations(header, rows, oracle.parse_suite("r([c] -> [b])"))


class RuleConfidence(unittest.TestCase):
    def test_g3_confidence_of_a_noisy_fd(self):
        # 12 tuples, one disagrees with its group: 11/12 remain.
        rows = "".join(f"{i % 3},v{i % 3}\n" for i in range(11)) + "0,wrong\n"
        header, data = table("a,b\n" + rows)
        checker = oracle.RuleChecker(header, data)
        conf, support = checker.confidence(oracle.parse_suite("r([a] -> [b])")[0])
        self.assertAlmostEqual(conf, 11 / 12)
        self.assertEqual(support, 12)

    def test_conditional_and_constant_rules(self):
        header, rows = table(CUST)
        checker = oracle.RuleChecker(header, rows)
        city_nyc = oracle.parse_suite("customer([cc='01'] -> [city='nyc'])")[0]
        self.assertEqual(checker.confidence(city_nyc), (1.0, 4))
        zip_street = oracle.parse_suite("customer([cc='44', zip] -> [street])")[0]
        self.assertEqual(checker.confidence(zip_street), (0.5, 2))
        nothing = oracle.parse_suite("customer([cc='99'] -> [city])")[0]
        self.assertEqual(checker.confidence(nothing), (1.0, 0))

    def test_integer_columns_compare_as_integers(self):
        # A typed snapshot stores cc '01' as the integer 1; a rule mined
        # from it says cc='1'.
        header, rows = table(CUST)
        checker = oracle.RuleChecker(header, rows)
        rule = oracle.parse_suite("customer([ac='908'] -> [cc='1'])")[0]
        self.assertEqual(checker.confidence(rule), (1.0, 3))
        # zip holds text ('EH4 1DT'), so '07974' stays text.
        rule = oracle.parse_suite("customer([zip='07974'] -> [cc])")[0]
        self.assertEqual(checker.confidence(rule), (1.0, 2))


class Scorer(unittest.TestCase):
    def test_cell_by_cell_score(self):
        _, clean = table("a,b\n1,x\n2,y\n3,z\n")
        _, dirty = table("a,b\n1,q\n2,y\n9,z\n")  # two dirty cells
        _, fixed = table("a,b\n1,x\n2,w\n9,z\n")  # one corrected, one clean cell broken
        s = oracle.score(dirty, fixed, clean)
        self.assertEqual(s["dirty_cells"], 2)
        self.assertEqual(s["cells_changed"], 2)
        self.assertEqual(s["cells_corrected"], 1)
        self.assertEqual(s["clean_cells_broken"], 1)
        self.assertAlmostEqual(s["precision"], 0.5)
        self.assertAlmostEqual(s["recall"], 0.5)
        self.assertEqual(oracle.cells_differing(dirty, fixed), 2)

    def test_rewritten_leading_zero_counts_as_a_change(self):
        _, dirty = table("cc,city\n01,nyc\n44,edi\n")
        _, fixed = table("cc,city\n1,nyc\n44,edi\n")
        self.assertEqual(oracle.cells_differing(dirty, fixed), 1)


if __name__ == "__main__":
    unittest.main()
